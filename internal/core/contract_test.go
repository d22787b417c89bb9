package core

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// contractApps are the applications the launch contract is tried on: two that
// run a native without sampling (vectorAdd, BlackScholes) and three whose λ is
// sampled on kpl's engine before they run (Mandelbrot, binomialOptions,
// mergeSort), which once answered the same defect differently.
var contractApps = []string{"vectorAdd", "BlackScholes", "Mandelbrot", "binomialOptions", "mergeSort"}

// contractDefect breaks one clause of the launch contract in a valid launch
// of k, and gives the refusal's text.
type contractDefect struct {
	name   string
	breaks func(k *kpl.Kernel, grid, block *int, params map[string]kpl.Value, bind map[string]devmem.Ptr)
	want   func(k *kpl.Kernel) string
}

func bindRefusal(k *kpl.Kernel, name, msg string) string {
	return fmt.Sprintf("kpl: kernel %q: bind %q: %s", k.Name, name, msg)
}

func shapeRefusal(k *kpl.Kernel, grid, block int) string {
	return fmt.Sprintf("hostgpu: %s: invalid launch %d×%d: want 0 < grid, 0 < block and grid×block ≤ 2147483647 threads", k.Name, grid, block)
}

var contractDefects = []contractDefect{
	{"an f64 first parameter",
		func(k *kpl.Kernel, _, _ *int, params map[string]kpl.Value, _ map[string]devmem.Ptr) {
			params[k.Params[0].Name] = kpl.F64Val(params[k.Params[0].Name].Float())
		},
		func(k *kpl.Kernel) string {
			return bindRefusal(k, k.Params[0].Name, "parameter is f64, declared "+k.Params[0].T.String())
		}},
	{"a missing declared parameter",
		func(k *kpl.Kernel, _, _ *int, params map[string]kpl.Value, _ map[string]devmem.Ptr) {
			delete(params, k.Params[0].Name)
		},
		func(k *kpl.Kernel) string { return bindRefusal(k, k.Params[0].Name, "unbound parameter") }},
	{"an undeclared parameter",
		func(_ *kpl.Kernel, _, _ *int, params map[string]kpl.Value, _ map[string]devmem.Ptr) {
			params["zz"] = kpl.IntVal(1)
		},
		func(k *kpl.Kernel) string { return bindRefusal(k, "zz", "undeclared parameter") }},
	{"an unbound buffer",
		func(k *kpl.Kernel, _, _ *int, _ map[string]kpl.Value, bind map[string]devmem.Ptr) {
			delete(bind, k.Bufs[0].Name)
		},
		func(k *kpl.Kernel) string { return bindRefusal(k, k.Bufs[0].Name, "buffer not bound") }},
	{"an undeclared binding",
		func(k *kpl.Kernel, _, _ *int, _ map[string]kpl.Value, bind map[string]devmem.Ptr) {
			bind["zz"] = bind[k.Bufs[0].Name]
		},
		func(k *kpl.Kernel) string { return bindRefusal(k, "zz", "undeclared buffer") }},
	{"2³² threads",
		func(_ *kpl.Kernel, grid, block *int, _ map[string]kpl.Value, _ map[string]devmem.Ptr) {
			*grid, *block = 1<<16, 1<<16
		},
		func(k *kpl.Kernel) string { return shapeRefusal(k, 1<<16, 1<<16) }},
	{"a grid×block that wraps to 0",
		func(_ *kpl.Kernel, grid, block *int, _ map[string]kpl.Value, _ map[string]devmem.Ptr) {
			*grid, *block = 1<<32, 1<<32
		},
		func(k *kpl.Kernel) string { return shapeRefusal(k, 1<<32, 1<<32) }},
}

// TestLaunchContract sends each application's valid launch with one clause of
// the launch contract broken through MultiService.Handle. Whatever engine the
// application's launch would reach — a native, or kpl's for a sampled λ —
// each must be refused at the door with the contract's own text, before
// admission, and the valid launch must still run.
func TestLaunchContract(t *testing.T) {
	for _, app := range contractApps {
		t.Run(app, func(t *testing.T) {
			const vp = 1
			opts := DefaultOptions()
			opts.Admission = AdmissionOptions{MaxQueuedJobs: 4}
			farm, dev := farmOfOne(t, opts)
			farm.RegisterVP(vp)
			b, err := kernels.Get(app)
			if err != nil {
				t.Fatal(err)
			}
			k, w := b.Kernel, b.MakeWorkload(1)
			if k.Params[0].T == kpl.F64 {
				t.Fatalf("%s declares its first parameter f64: the f64 case would show nothing", app)
			}
			valid := ipc.LaunchReq{Kernel: app, Grid: w.Grid, Block: w.Block, Params: w.Params, Bindings: map[string]devmem.Ptr{}}
			for name, size := range w.BufBytes {
				valid.Bindings[name] = mallocVP(t, farm, vp, size).Ptr
				if in, ok := w.Inputs[name]; ok {
					if _, ok := farm.Handle(vp, ipc.H2DReq{Dst: valid.Bindings[name], Data: in}).(ipc.OKResp); !ok {
						t.Fatalf("H2D of %s refused", name)
					}
				}
			}
			admitted := dev.Metrics().Counter("core.admission.admitted")
			for _, d := range contractDefects {
				req := valid
				req.Params, req.Bindings = maps.Clone(valid.Params), maps.Clone(valid.Bindings)
				d.breaks(k, &req.Grid, &req.Block, req.Params, req.Bindings)
				before := admitted.Value()
				raw := farm.Handle(vp, req)
				resp, ok := raw.(ipc.ErrResp)
				if !ok {
					t.Errorf("%s: answered %#v, want ErrResp", d.name, raw)
					continue
				}
				if want := d.want(k); resp.Msg != want {
					t.Errorf("%s: refused with %q, want %q", d.name, resp.Msg, want)
				}
				if got := admitted.Value(); got != before {
					t.Errorf("%s: admitted went %d → %d", d.name, before, got)
				}
			}
			before := admitted.Value()
			if resp := farm.Handle(vp, valid); !isOKResp(resp) {
				t.Fatalf("the valid launch answered %#v", resp)
			}
			if got := admitted.Value(); got != before+1 {
				t.Errorf("the valid launch: admitted went %d → %d, want one more", before, got)
			}
		})
	}
}

func isOKResp(resp any) bool {
	_, ok := resp.(ipc.OKResp)
	return ok
}
