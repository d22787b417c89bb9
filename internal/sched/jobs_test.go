package sched

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// newDevice builds a small timing-only device for job execution tests.
func newDevice(t *testing.T) *hostgpu.GPU {
	t.Helper()
	g := hostgpu.New(arch.Quadro4000(), 1<<22)
	return g
}

func storeKernel(t *testing.T) (*kpl.Kernel, *kir.Program) {
	t.Helper()
	k := &kpl.Kernel{
		Name: "storeOne",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{kpl.Store("out", kpl.TID(), kpl.CF(2))},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, prog
}

func TestJobConstructorsExecute(t *testing.T) {
	g := newDevice(t)
	ptr, err := g.Mem.Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}

	h2d := NewH2D(1, 1, ptr, 0, devmem.EncodeF32(make([]float32, 64)))
	if h2d.Engine != hostgpu.EngineH2D || h2d.Label == "" {
		t.Errorf("H2D job misconfigured: %+v", h2d)
	}
	if err := h2d.Run(g); err != nil {
		t.Fatal(err)
	}
	if h2d.Interval.Duration() <= 0 {
		t.Error("H2D interval empty")
	}

	k, prog := storeKernel(t)
	kj := NewKernel(1, 1, &hostgpu.Launch{
		Kernel: k, Prog: prog, Grid: 2, Block: 32,
		Bindings: map[string]devmem.Ptr{"out": ptr},
	})
	if kj.Engine != hostgpu.EngineCompute || kj.Launch == nil {
		t.Errorf("kernel job misconfigured")
	}
	if err := kj.Run(g); err != nil {
		t.Fatal(err)
	}
	if kj.Profile == nil || kj.Profile.Sigma.Sum() <= 0 {
		t.Error("kernel job missing profile")
	}

	d2h := NewD2H(1, 1, ptr, 0, 4*64)
	if d2h.Engine != hostgpu.EngineD2H {
		t.Error("D2H engine wrong")
	}
	if err := d2h.Run(g); err != nil {
		t.Fatal(err)
	}
	vals := devmem.DecodeF32(d2h.Data)
	if vals[5] != 2 {
		t.Errorf("D2H data wrong: %v", vals[5])
	}

	ran := false
	custom := NewCustom(-1, -1, hostgpu.EngineCompute, "x", func(j *Job, gg *hostgpu.GPU) error {
		ran = true
		return nil
	})
	if err := custom.Run(g); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("custom job did not run")
	}
}

func TestJobErrorPaths(t *testing.T) {
	g := newDevice(t)
	bad := NewH2D(1, 1, devmem.Ptr(0xdead), 0, []byte{1})
	if err := bad.Run(g); err == nil {
		t.Fatal("invalid H2D accepted")
	}
	badD := NewD2H(1, 1, devmem.Ptr(0xdead), 0, 4)
	if err := badD.Run(g); err == nil {
		t.Fatal("invalid D2H accepted")
	}
	// Finish keeps the first error.
	j := fakeJob(1, 1, hostgpu.EngineH2D)
	j.Err = errors.New("first")
	j.Finish(errors.New("second"))
	if err := j.Wait(); err == nil || err.Error() != "first" {
		t.Fatalf("Finish overwrote first error: %v", err)
	}
}

// TestPlanFIFOMovesDependentsOnly: planFIFO delays only jobs whose deps sit
// later in arrival order, leaving everything else in place.
func TestPlanFIFOMovesDependentsOnly(t *testing.T) {
	a := fakeJob(1, 1, hostgpu.EngineH2D)
	late := fakeJob(2, 2, hostgpu.EngineCompute)
	dependent := fakeJob(3, 3, hostgpu.EngineD2H)
	dependent.Deps = []*Job{late}
	batch := []*Job{a, dependent, late}
	order := Plan(batch, PolicyFIFO)
	pos := positions(order)
	if pos[a] != 0 {
		t.Error("independent job moved")
	}
	if pos[dependent] < pos[late] {
		t.Error("dependent ran before its dependency")
	}
	// Cycle fallback: mutually dependent jobs still all get planned.
	x := fakeJob(4, 4, hostgpu.EngineH2D)
	y := fakeJob(5, 5, hostgpu.EngineH2D)
	x.Deps = []*Job{y}
	y.Deps = []*Job{x}
	cyc := Plan([]*Job{x, y}, PolicyFIFO)
	if len(cyc) != 2 {
		t.Fatalf("cycle plan lost jobs: %d", len(cyc))
	}
}

// TestJobLabels pins the label of one job of each kind, which traces and job
// events carry.
func TestJobLabels(t *testing.T) {
	k, _ := storeKernel(t)
	pl := devmem.NewPayload(300)
	defer pl.Release()
	for _, c := range []struct {
		j    *Job
		want string
	}{
		{NewH2D(3, 0, 0x1000, 0, make([]byte, 256)), "vp3 H2D 256B"},
		{NewH2DFrom(12, 0, 0x1000, 0, pl), "vp12 H2D 300B"},
		{NewD2H(0, 0, 0x1000, 0, 4096), "vp0 D2H 4096B"},
		{NewD2HInto(7, 0, 0x1000, 0, make([]byte, 64)), "vp7 D2H 64B"},
		{NewMemset(-1, 0, 0x1000, 0, 1<<20, 0), "vp-1 memset 1048576B"},
		{NewKernel(5, 0, &hostgpu.Launch{Kernel: k}), "vp5 storeOne"},
	} {
		if c.j.Label != c.want {
			t.Errorf("label %q, want %q", c.j.Label, c.want)
		}
	}
}
