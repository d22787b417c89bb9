package emul

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
)

func vecAddLaunch(t *testing.T, d *Device, n int) *hostgpu.Launch {
	t.Helper()
	k := &kpl.Kernel{
		Name:   "vectorAdd",
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "a", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "b", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			kpl.IfProb(1, kpl.LT(kpl.TID(), kpl.P("n")),
				kpl.Store("out", kpl.TID(), kpl.Add(kpl.Load("a", kpl.TID()), kpl.Load("b", kpl.TID()))),
			),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(fill float32) devmem.Ptr {
		p, err := d.Mem.Alloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = fill * float32(i)
		}
		if _, err := d.CopyH2D(p, 0, devmem.EncodeF32(vals)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return &hostgpu.Launch{
		Kernel: k, Prog: prog,
		Grid: (n + 255) / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
		Bindings: map[string]devmem.Ptr{"a": alloc(1), "b": alloc(2), "out": alloc(0)},
	}
}

func TestEmulatedLaunchIsFunctionallyCorrect(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	l := vecAddLaunch(t, d, 300)
	p, iv, err := d.Launch(l)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Duration() <= 0 {
		t.Error("emulated kernel should take time")
	}
	raw, _, err := d.CopyD2H(l.Bindings["out"], 0, 4*300)
	if err != nil {
		t.Fatal(err)
	}
	out := devmem.DecodeF32(raw)
	for i := range out {
		if out[i] != 3*float32(i) {
			t.Fatalf("out[%d] = %v", i, out[i])
		}
	}
	if p.Sigma.Sum() <= 0 || math.Abs(p.TimeSec-iv.Duration()) > 1e-12*p.TimeSec {
		t.Error("profile inconsistent")
	}
}

func TestVPEmulationIsSlower(t *testing.T) {
	host := New(arch.HostXeon(), 1<<24)
	vp := New(arch.ARMVersatile(), 1<<24)
	lh := vecAddLaunch(t, host, 1024)
	lv := vecAddLaunch(t, vp, 1024)
	_, ih, err := host.Launch(lh)
	if err != nil {
		t.Fatal(err)
	}
	_, ivp, err := vp.Launch(lv)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ivp.Duration() / ih.Duration()
	want := arch.ARMVersatile().BTEmulSlowdown
	if math.Abs(ratio-want) > 0.01*want {
		t.Errorf("VP slowdown = %v, want %v", ratio, want)
	}
}

// TestLaunchErrors: the emulated device is a door, so it refuses a launch
// that breaks the launch contract (hostgpu.Launch.Check) before binding or
// running anything, with the contract's own text — the table the service's
// door is held to (core's TestLaunchContract), on the same five applications.
func TestLaunchErrors(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	if _, _, err := d.Launch(&hostgpu.Launch{}); err == nil {
		t.Error("empty launch accepted")
	}
	l := vecAddLaunch(t, d, 16)
	l.Grid = 0
	if _, _, err := d.Launch(l); err == nil {
		t.Error("zero grid accepted")
	}
	l.Grid = 1
	delete(l.Bindings, "a")
	if _, _, err := d.Launch(l); err == nil {
		t.Error("missing binding accepted")
	}

	for _, app := range []string{"vectorAdd", "BlackScholes", "Mandelbrot", "binomialOptions", "mergeSort"} {
		b, err := kernels.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		k, w := b.Kernel, b.MakeWorkload(1)
		valid := b.NewLaunch(w)
		valid.Bindings = map[string]devmem.Ptr{}
		for name, size := range w.BufBytes {
			p, err := d.Mem.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Mem.Write(p, 0, w.Inputs[name]); err != nil {
				t.Fatal(err)
			}
			valid.Bindings[name] = p
		}
		for _, c := range launchDefects {
			l := *valid
			l.Params, l.Bindings = maps.Clone(valid.Params), maps.Clone(valid.Bindings)
			c.breaks(k, &l)
			now, used := d.Now(), d.Mem.Used()
			_, _, err := d.Launch(&l)
			if want := c.want(k); err == nil || err.Error() != want {
				t.Errorf("%s, %s: %v, want %q", app, c.name, err, want)
			}
			if d.Now() != now || d.Mem.Used() != used {
				t.Errorf("%s, %s: the refused launch moved the clock or memory", app, c.name)
			}
		}
		if _, _, err := d.Launch(valid); err != nil {
			t.Errorf("%s: the valid launch: %v", app, err)
		}
	}
}

// launchDefects breaks one clause of the launch contract each, as core's
// TestLaunchContract table does, and gives the refusal's text.
var launchDefects = []struct {
	name   string
	breaks func(k *kpl.Kernel, l *hostgpu.Launch)
	want   func(k *kpl.Kernel) string
}{
	{"an f64 first parameter",
		func(k *kpl.Kernel, l *hostgpu.Launch) {
			l.Params[k.Params[0].Name] = kpl.F64Val(l.Params[k.Params[0].Name].Float())
		},
		func(k *kpl.Kernel) string {
			return bindRefusal(k, k.Params[0].Name, "parameter is f64, declared "+k.Params[0].T.String())
		}},
	{"a missing declared parameter",
		func(k *kpl.Kernel, l *hostgpu.Launch) { delete(l.Params, k.Params[0].Name) },
		func(k *kpl.Kernel) string { return bindRefusal(k, k.Params[0].Name, "unbound parameter") }},
	{"an undeclared parameter",
		func(_ *kpl.Kernel, l *hostgpu.Launch) { l.Params["zz"] = kpl.IntVal(1) },
		func(k *kpl.Kernel) string { return bindRefusal(k, "zz", "undeclared parameter") }},
	{"an unbound buffer",
		func(k *kpl.Kernel, l *hostgpu.Launch) { delete(l.Bindings, k.Bufs[0].Name) },
		func(k *kpl.Kernel) string { return bindRefusal(k, k.Bufs[0].Name, "buffer not bound") }},
	{"an undeclared binding",
		func(k *kpl.Kernel, l *hostgpu.Launch) { l.Bindings["zz"] = l.Bindings[k.Bufs[0].Name] },
		func(k *kpl.Kernel) string { return bindRefusal(k, "zz", "undeclared buffer") }},
	{"2³² threads",
		func(_ *kpl.Kernel, l *hostgpu.Launch) { l.Grid, l.Block = 1<<16, 1<<16 },
		func(k *kpl.Kernel) string { return shapeRefusal(k, 1<<16, 1<<16) }},
	{"a grid×block that wraps to 0",
		func(_ *kpl.Kernel, l *hostgpu.Launch) { l.Grid, l.Block = 1<<32, 1<<32 },
		func(k *kpl.Kernel) string { return shapeRefusal(k, 1<<32, 1<<32) }},
}

func bindRefusal(k *kpl.Kernel, name, msg string) string {
	return fmt.Sprintf("kpl: kernel %q: bind %q: %s", k.Name, name, msg)
}

func shapeRefusal(k *kpl.Kernel, grid, block int) string {
	return fmt.Sprintf("hostgpu: %s: invalid launch %d×%d: want 0 < grid, 0 < block and grid×block ≤ 2147483647 threads", k.Name, grid, block)
}

func TestClockAdvances(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	if d.Now() != 0 {
		t.Error("fresh clock not zero")
	}
	l := vecAddLaunch(t, d, 64)
	if _, _, err := d.Launch(l); err != nil {
		t.Fatal(err)
	}
	if d.Now() <= 0 {
		t.Error("clock should advance")
	}
}

// TestNativeSemanticsWithDynamicProfile: a data-dependent kernel with a
// native implementation still produces a σ via sampling.
func TestNativeSemanticsWithDynamicProfile(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	k := &kpl.Kernel{
		Name: "escape",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("c", kpl.CI(0)),
			kpl.For("esc", "j", kpl.CI(0), kpl.CI(32),
				kpl.If(kpl.GE(kpl.V("j"), kpl.CI(7)), kpl.Break()),
				kpl.Let("c", kpl.Add(kpl.V("c"), kpl.CI(1))),
			),
			kpl.Store("out", kpl.TID(), kpl.V("c")),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := d.Mem.Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	native := func(env *kpl.Env) error {
		out := env.Bufs["out"]
		for i := range out.I32s {
			out.I32s[i] = 7
		}
		return nil
	}
	p, _, err := d.Launch(&hostgpu.Launch{
		Kernel: k, Prog: prog, Grid: 2, Block: 32,
		Bindings: map[string]devmem.Ptr{"out": ptr},
		Native:   native,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Sigma.Sum() <= 0 {
		t.Error("σ should be positive via sampling")
	}
	raw, _, _ := d.CopyD2H(ptr, 0, 4*64)
	if devmem.DecodeI32(raw)[5] != 7 {
		t.Error("native semantics not applied")
	}
}

// TestMemsetRejectsHostileCounts: see the hostgpu test of the same name.
func TestMemsetRejectsHostileCounts(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	p, err := d.Mem.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 65, 1 << 33} {
		if _, err := d.Memset(p, 0, n, 0xFF); err == nil {
			t.Errorf("Memset of %d bytes into 64 accepted", n)
		}
	}
	if _, err := d.Memset(p, 0, 64, 0xFF); err != nil {
		t.Errorf("in-range Memset after refusals: %v", err)
	}
}
