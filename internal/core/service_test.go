package core

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/sched"
	"repro/internal/vp"
)

// vecAddApp is a guest application: allocate, copy in, launch vectorAdd,
// copy out, check. It runs unchanged on any back end.
func vecAddApp(n int, iters int) vp.App {
	return func(v *vp.VP) error {
		b, err := kernels.Get("vectorAdd")
		if err != nil {
			return err
		}
		ctx := v.Ctx
		a := make([]float32, n)
		bb := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(i + v.ID)
			bb[i] = float32(2 * i)
		}
		pa, err := ctx.Malloc(4 * n)
		if err != nil {
			return err
		}
		pb, err := ctx.Malloc(4 * n)
		if err != nil {
			return err
		}
		po, err := ctx.Malloc(4 * n)
		if err != nil {
			return err
		}
		l := &hostgpu.Launch{
			Kernel: b.Kernel, Prog: b.Prog,
			Grid: (n + 511) / 512, Block: 512,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
			Bindings: map[string]devmem.Ptr{"a": pa, "b": pb, "out": po},
			Native:   b.Native,
		}
		for it := 0; it < iters; it++ {
			v.Checkpoint()
			if err := ctx.MemcpyH2DAsync(0, pa, devmem.EncodeF32(a)); err != nil {
				return err
			}
			if err := ctx.MemcpyH2DAsync(0, pb, devmem.EncodeF32(bb)); err != nil {
				return err
			}
			if err := ctx.LaunchKernelAsync(0, l); err != nil {
				return err
			}
			tok, err := ctx.MemcpyD2HAsync(0, po, 4*n)
			if err != nil {
				return err
			}
			if err := ctx.DeviceSynchronize(); err != nil {
				return err
			}
			out := devmem.DecodeF32(tok.Bytes())
			for i := range out {
				if out[i] != a[i]+bb[i] {
					return fmt.Errorf("vp%d iter%d out[%d] = %v, want %v", v.ID, it, i, out[i], a[i]+bb[i])
				}
			}
		}
		return nil
	}
}

// farmOfOne hosts a per-device test's VPs the way every in-process harness
// does, on a one-device farm, and returns the farm (Backend, WrapApp) with its
// device.
func farmOfOne(t testing.TB, opts Options) (*MultiService, *Service) {
	t.Helper()
	m, err := NewMultiService(opts, []arch.GPU{opts.Arch})
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Device(0)
}

// runFleet runs n VPs of the app through a service and returns the GPU
// makespan.
func runFleet(t *testing.T, opts Options, n, elems, iters int) float64 {
	t.Helper()
	m, s := farmOfOne(t, opts)
	fleet := vp.NewFleet(n, arch.ARMVersatile(), func(id int) *cudart.Context {
		s.RegisterVP(id)
		return cudart.NewContext(id, m.Backend(id))
	})
	err := fleet.Run(m.WrapApp(vecAddApp(elems, iters)))
	s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return s.Sync()
}

func TestSingleVPFunctional(t *testing.T) {
	opts := DefaultOptions()
	got := runFleet(t, opts, 1, 2048, 2)
	if got <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestMultiVPFunctionalWithOptimizations(t *testing.T) {
	opts := DefaultOptions()
	runFleet(t, opts, 4, 2048, 3)
}

func TestMultiVPFunctionalBaseline(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = sched.PolicyFIFO
	opts.Coalesce = false
	runFleet(t, opts, 4, 2048, 3)
}

// TestOptimizationsReduceMakespan: the full ΣVP pipeline (interleave +
// coalesce) must beat the serialized baseline on the same workload. A single
// iteration keeps every VP's burst in one batch window, making the live
// (goroutine-driven) run deterministic enough to assert on.
func TestOptimizationsReduceMakespan(t *testing.T) {
	base := DefaultOptions()
	base.Policy = sched.PolicyFIFO
	base.Coalesce = false
	tBase := runFleet(t, base, 6, 1<<18, 1)

	opt := DefaultOptions()
	tOpt := runFleet(t, opt, 6, 1<<18, 1)

	if tOpt >= tBase {
		t.Fatalf("optimized %.6f should beat baseline %.6f", tOpt, tBase)
	}
	t.Logf("baseline %.6fs, optimized %.6fs (%.2fx)", tBase, tOpt, tBase/tOpt)
}

// TestRemoteIPCBackend drives the service over the TCP transport.
func TestRemoteIPCBackend(t *testing.T) {
	s := NewService(DefaultOptions())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.Serve(l, s.Handle)
	defer srv.Close()

	const nVP = 3
	var wg sync.WaitGroup
	errs := make([]error, nVP)
	for id := 0; id < nVP; id++ {
		s.RegisterVP(id)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer s.UnregisterVP(id)
			client, err := ipc.Dial(srv.Addr().String(), id)
			if err != nil {
				errs[id] = err
				return
			}
			ctx := cudart.NewContext(id, cudart.NewRemoteBackend(client))
			defer ctx.Close()
			v := vp.New(id, arch.ARMVersatile(), ctx)
			errs[id] = v.Run(vecAddApp(1024, 2))
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("vp%d: %v", id, err)
		}
	}
}

func TestServiceHandleErrors(t *testing.T) {
	s := NewService(DefaultOptions())
	if _, ok := s.Handle(0, ipc.MallocReq{Size: -1}).(ipc.ErrResp); !ok {
		t.Error("bad malloc should error")
	}
	if _, ok := s.Handle(0, ipc.FreeReq{Ptr: 0xbad}).(ipc.ErrResp); !ok {
		t.Error("bad free should error")
	}
	if _, ok := s.Handle(0, ipc.LaunchReq{Kernel: "ghost"}).(ipc.ErrResp); !ok {
		t.Error("unknown kernel should error")
	}
	if _, ok := s.Handle(0, "garbage").(ipc.ErrResp); !ok {
		t.Error("unknown request should error")
	}
	if _, ok := s.Handle(0, ipc.SyncReq{}).(ipc.OKResp); !ok {
		t.Error("sync should succeed")
	}
}

func TestServiceMallocFreeViaHandle(t *testing.T) {
	s := NewService(DefaultOptions())
	resp := s.Handle(1, ipc.MallocReq{Size: 256})
	m, ok := resp.(ipc.MallocResp)
	if !ok {
		t.Fatalf("malloc failed: %v", resp)
	}
	if _, ok := s.Handle(1, ipc.FreeReq{Ptr: m.Ptr}).(ipc.OKResp); !ok {
		t.Fatal("free failed")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Policy != sched.PolicyInterleave || !o.Coalesce {
		t.Error("defaults should enable both optimizations")
	}
	s := NewService(o)
	if s.Options().Arch.Name != "Quadro 4000" {
		t.Error("default arch wrong")
	}
	if s.GPU.Serialize {
		t.Error("optimized service must pipeline")
	}
	base := o
	base.Policy = sched.PolicyFIFO
	if !NewService(base).GPU.Serialize {
		t.Error("baseline service must serialize")
	}
}

// TestEstimationModuleInService: with a target attached, every kernel run
// through the service also yields a target time/power prediction.
func TestEstimationModuleInService(t *testing.T) {
	opts := DefaultOptions()
	tegra := arch.TegraK1()
	opts.EstimateTarget = &tegra
	m, s := farmOfOne(t, opts)
	fleet := vp.NewFleet(2, arch.ARMVersatile(), func(id int) *cudart.Context {
		s.RegisterVP(id)
		return cudart.NewContext(id, m.Backend(id))
	})
	if err := fleet.Run(m.WrapApp(vecAddApp(2048, 2))); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	res := s.Estimator.Results()
	if len(res) == 0 {
		t.Fatal("no estimates collected")
	}
	for _, r := range res {
		if r.Kernel != "vectorAdd" {
			t.Errorf("unexpected kernel %q", r.Kernel)
		}
		if r.TargetTimeSec <= 0 || r.TargetPowerW <= 0 {
			t.Errorf("degenerate estimate %+v", r)
		}
		if r.TargetTimeSec <= r.HostTimeSec {
			t.Errorf("embedded target should be slower than the host: %+v", r)
		}
	}
	if !strings.Contains(s.Estimator.String(), "Tegra K1") {
		t.Error("estimator report missing target name")
	}
}

// TestEstimationObservesCoalescedMembers: two VPs' launches submitted in one
// batch are merged by the coalescer, and the estimator still yields one
// prediction per VP, from each member's own launch and profile share.
func TestEstimationObservesCoalescedMembers(t *testing.T) {
	opts := DefaultOptions()
	tegra := arch.TegraK1()
	opts.EstimateTarget = &tegra
	s := NewService(opts)
	defer s.Close()
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	var batch []*sched.Job
	for vpID := 0; vpID < 2; vpID++ {
		bind := map[string]devmem.Ptr{}
		for _, name := range []string{"a", "b", "out"} {
			ptr, err := s.GPU.Mem.Alloc(4 * 64)
			if err != nil {
				t.Fatal(err)
			}
			bind[name] = ptr
		}
		j := sched.NewKernel(vpID, vpID, &hostgpu.Launch{
			Kernel: bench.Kernel, Prog: bench.Prog, Grid: 1, Block: 64,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(64)},
			Bindings: bind,
			Native:   bench.Native,
		})
		j.Coalescable = true
		batch = append(batch, j)
	}
	s.DispatchRaw(batch)
	s.Drain()
	if got := s.Metrics().Snapshot().CounterValue("coalesce.jobs_merged"); got != 2 {
		t.Fatalf("coalesce.jobs_merged = %d, want 2: the launches were not merged", got)
	}
	res := s.Estimator.Results()
	if len(res) != 2 {
		t.Fatalf("%d estimates, want one per VP: %+v", len(res), res)
	}
	for i, r := range res {
		if r.VP != i || r.Kernel != "vectorAdd" {
			t.Errorf("estimate %d is for vp %d kernel %q", i, r.VP, r.Kernel)
		}
		if r.HostTimeSec <= 0 || r.TargetTimeSec <= r.HostTimeSec || r.TargetPowerW <= 0 {
			t.Errorf("degenerate estimate %+v", r)
		}
	}
}

// TestMemsetThroughService: cudaMemset works over both the in-process and
// the TCP IPC paths, and histogram-style apps can zero their bins between
// iterations.
func TestMemsetThroughService(t *testing.T) {
	m, s := farmOfOne(t, DefaultOptions())
	s.RegisterVP(0)
	defer s.UnregisterVP(0)
	ctx := cudart.NewContext(0, m.Backend(0))
	p, err := ctx.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2D(p, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Memset(p, 128, 0x5A); err != nil {
		t.Fatal(err)
	}
	raw, err := ctx.MemcpyD2H(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range raw {
		if b != 0x5A {
			t.Fatalf("byte %x", b)
		}
	}
	// Over the wire too.
	resp := s.Handle(0, ipc.MemsetReq{Dst: p, Off: 0, N: 128, Value: 1})
	if _, ok := resp.(ipc.OKResp); !ok {
		t.Fatalf("wire memset: %v", resp)
	}
	resp = s.Handle(0, ipc.MemsetReq{Dst: p, Off: 120, N: 64, Value: 1})
	if _, ok := resp.(ipc.ErrResp); !ok {
		t.Fatal("out-of-range wire memset accepted")
	}
}

// TestMemsetHostileCountIsAnError: one MemsetReq with a negative count used
// to panic the executor goroutine (makeslice), and one with a count of 8 GiB
// allocated that many zeros before the bounds check. Both must come back as
// an ErrResp, and the service must still serve afterwards.
func TestMemsetHostileCountIsAnError(t *testing.T) {
	s := NewService(DefaultOptions())
	defer s.Close()
	s.RegisterVP(0)
	defer s.UnregisterVP(0)
	mr, ok := s.Handle(0, ipc.MallocReq{Size: 128}).(ipc.MallocResp)
	if !ok {
		t.Fatal("malloc failed")
	}
	for _, n := range []int{-1, 1 << 33} {
		resp := s.Handle(0, ipc.MemsetReq{Dst: mr.Ptr, N: n, Value: 1})
		if _, ok := resp.(ipc.ErrResp); !ok {
			t.Fatalf("MemsetReq{N: %d} = %#v, want an ErrResp", n, resp)
		}
	}
	if resp, ok := s.Handle(0, ipc.MemsetReq{Dst: mr.Ptr, N: 128, Value: 9}).(ipc.OKResp); !ok {
		t.Fatalf("in-range memset after the refusals: %#v", resp)
	}
	d2h, ok := s.Handle(0, ipc.D2HReq{Src: mr.Ptr, N: 128}).(ipc.D2HResp)
	if !ok || !bytes.Equal(d2h.Data, bytes.Repeat([]byte{9}, 128)) {
		t.Fatalf("service no longer serving after hostile memsets: %#v", d2h)
	}
}

// TestRemoteVPsWithRegistrationHooks mirrors the sigmavpd deployment: VP
// connections register with the batching logic on connect and unregister on
// disconnect, so an early-finishing VP cannot stall the others.
func TestRemoteVPsWithRegistrationHooks(t *testing.T) {
	s := NewService(DefaultOptions())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeWithHooks(l, s.Handle, s.RegisterVP, s.UnregisterVP)
	defer srv.Close()

	const nVP = 4
	var wg sync.WaitGroup
	errs := make([]error, nVP)
	for id := 0; id < nVP; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := ipc.Dial(srv.Addr().String(), id)
			if err != nil {
				errs[id] = err
				return
			}
			ctx := cudart.NewContext(id, cudart.NewRemoteBackend(client))
			defer ctx.Close() // disconnect → unregister
			v := vp.New(id, arch.ARMVersatile(), ctx)
			// Deliberately unequal work: VP 0 finishes first and disconnects
			// while the others still need batches dispatched.
			iters := 1 + id
			errs[id] = v.Run(vecAddApp(512, iters))
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("vp%d: %v", id, err)
		}
	}
}

func TestSessionEnergyThroughService(t *testing.T) {
	m, s := farmOfOne(t, DefaultOptions())
	if s.SessionEnergy() != 0 {
		t.Fatal("fresh service energy not zero")
	}
	fleet := vp.NewFleet(2, arch.ARMVersatile(), func(id int) *cudart.Context {
		s.RegisterVP(id)
		return cudart.NewContext(id, m.Backend(id))
	})
	if err := fleet.Run(m.WrapApp(vecAddApp(1024, 1))); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if s.SessionEnergy() <= 0 {
		t.Fatal("session energy should be positive after work")
	}
}
