package emul

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
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

func TestTimingOnlyMode(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	d.TimingOnly = true
	l := vecAddLaunch(t, d, 128)
	if _, _, err := d.Launch(l); err != nil {
		t.Fatal(err)
	}
	raw, _, _ := d.CopyD2H(l.Bindings["out"], 0, 4*128)
	for _, v := range devmem.DecodeF32(raw) {
		if v != 0 {
			t.Fatal("timing-only emulation mutated buffers")
		}
	}
}

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
}

func TestClockAndReset(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	l := vecAddLaunch(t, d, 64)
	if _, _, err := d.Launch(l); err != nil {
		t.Fatal(err)
	}
	if d.Now() <= 0 {
		t.Error("clock should advance")
	}
	d.ResetClock()
	if d.Now() != 0 {
		t.Error("ResetClock failed")
	}
}

func TestRunProgram(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	l := vecAddLaunch(t, d, 64)
	in := [][]byte{make([]byte, 4*64), make([]byte, 4*64)}
	dur, err := d.RunProgram(in, l, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("program should take time")
	}
}

func TestScalarTimeAndSlowdown(t *testing.T) {
	d := New(arch.HostXeon(), 1<<24)
	if d.ScalarTime(1e6) <= 0 {
		t.Error("scalar time should be positive")
	}
	if Slowdown(10, 2) != 5 {
		t.Error("Slowdown wrong")
	}
	if !math.IsInf(Slowdown(10, 0), 1) {
		t.Error("Slowdown by zero should be +Inf")
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
