package hostgpu

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/trace"
)

// vecAdd builds the canonical elementwise kernel used across the tests.
func vecAdd(t *testing.T) (*kpl.Kernel, *kir.Program) {
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
			kpl.IfProb(1.0, kpl.LT(kpl.TID(), kpl.P("n")),
				kpl.Store("out", kpl.TID(), kpl.Add(kpl.Load("a", kpl.TID()), kpl.Load("b", kpl.TID()))),
			),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, prog
}

func newQuadro(t *testing.T) *GPU {
	t.Helper()
	return New(arch.Quadro4000(), 1<<28)
}

// prepVecAdd allocates and fills device buffers for an n-element vectorAdd
// and returns the launch.
func prepVecAdd(t *testing.T, g *GPU, n, grid, block int) *Launch {
	t.Helper()
	k, prog := vecAdd(t)
	mk := func(fill float32) devmem.Ptr {
		p, err := g.Mem.Alloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = fill * float32(i)
		}
		if _, err := g.CopyH2D(0, p, 0, devmem.EncodeF32(vals)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return &Launch{
		Kernel: k, Prog: prog,
		Grid: grid, Block: block,
		Params: map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
		Bindings: map[string]devmem.Ptr{
			"a": mk(1), "b": mk(2), "out": mk(0),
		},
	}
}

func TestCopyTime(t *testing.T) {
	g := arch.Quadro4000()
	zero := CopyTime(&g, 0)
	if zero != g.CopyLatencyUS*1e-6 {
		t.Errorf("zero-byte copy = %v, want latency %v", zero, g.CopyLatencyUS*1e-6)
	}
	if CopyTime(&g, -5) != zero {
		t.Error("negative size should clamp to latency")
	}
	mb := CopyTime(&g, 1<<20)
	want := g.CopyLatencyUS*1e-6 + float64(1<<20)/(g.CopyBWGBps*1e9)
	if math.Abs(mb-want) > 1e-15 {
		t.Errorf("1MB copy = %v, want %v", mb, want)
	}
}

func TestLaunchExecutesFunctionally(t *testing.T) {
	g := newQuadro(t)
	l := prepVecAdd(t, g, 512, 1, 512)
	p, iv, err := g.Launch(0, l)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Duration() <= 0 {
		t.Error("kernel should take time")
	}
	raw, _, err := g.CopyD2H(0, l.Bindings["out"], 0, 4*512, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := devmem.DecodeF32(raw)
	for i := range out {
		if out[i] != 3*float32(i) {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], 3*float32(i))
		}
	}
	if p.Sigma[arch.FP32] != 512 {
		t.Errorf("σ[FP32] = %v, want 512", p.Sigma[arch.FP32])
	}
	if p.TimeSec <= 0 || p.EnergyJ <= 0 {
		t.Error("profile time/energy should be positive")
	}
}

func TestLaunchNativeSemantics(t *testing.T) {
	g := newQuadro(t)
	l := prepVecAdd(t, g, 256, 1, 256)
	called := false
	l.Native = func(env *kpl.Env) error {
		called = true
		a, b, out := env.Bufs["a"], env.Bufs["b"], env.Bufs["out"]
		for i := range out.F32s {
			out.F32s[i] = a.F32s[i] + b.F32s[i]
		}
		return nil
	}
	if _, _, err := g.Launch(0, l); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("native function not used")
	}
	raw, _, _ := g.CopyD2H(0, l.Bindings["out"], 0, 4*256, nil)
	if devmem.DecodeF32(raw)[100] != 300 {
		t.Fatal("native result not written back")
	}
}

func TestTimingOnlySkipsExecution(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	l := prepVecAdd(t, g, 256, 1, 256)
	if _, _, err := g.Launch(0, l); err != nil {
		t.Fatal(err)
	}
	raw, _, _ := g.CopyD2H(0, l.Bindings["out"], 0, 4*256, nil)
	for _, v := range devmem.DecodeF32(raw) {
		if v != 0 {
			t.Fatal("timing-only mode mutated output buffer")
		}
	}
}

// TestLaunchErrors: the launch contract refuses an empty launch, a zero shape
// and a missing binding; below the doors that check it, a device still
// refuses the shape (Price applies that half) and a binding that names no
// allocation.
func TestLaunchErrors(t *testing.T) {
	g := newQuadro(t)
	k, prog := vecAdd(t)
	if err := (&Launch{}).Check(); err == nil {
		t.Error("empty launch accepted")
	}
	n := map[string]kpl.Value{"n": kpl.IntVal(32)}
	zero := &Launch{Kernel: k, Prog: prog, Grid: 0, Block: 0, Params: n}
	if err := zero.Check(); err == nil {
		t.Error("zero-shape launch accepted")
	}
	if _, _, err := g.Launch(0, zero); err == nil {
		t.Error("zero-shape launch run")
	}
	// Missing bindings.
	l := &Launch{Kernel: k, Prog: prog, Grid: 1, Block: 32, Params: n}
	if err := l.Check(); err == nil || !strings.Contains(err.Error(), `bind "a": buffer not bound`) {
		t.Errorf("unbound launch: %v", err)
	}
	if _, _, err := g.Launch(0, l); err == nil {
		t.Error("unbound launch run")
	}
}

// busyLaunch builds a synthetic kernel whose per-thread work is an m-iteration
// FP32 loop, with a single tiny output buffer.
func busyLaunch(t *testing.T, g *GPU, m, grid, block int) *Launch {
	t.Helper()
	k := &kpl.Kernel{
		Name:   "busywork",
		Params: []kpl.ParamDecl{{Name: "m", T: kpl.I32}},
		Bufs:   []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("acc", kpl.CF(0)),
			kpl.For("work", "j", kpl.CI(0), kpl.P("m"),
				kpl.Let("acc", kpl.Add(kpl.V("acc"), kpl.CF(1))),
			),
			kpl.Store("out", kpl.Mod(kpl.TID(), kpl.CI(1024)), kpl.V("acc")),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := g.Mem.Alloc(4 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	return &Launch{
		Kernel: k, Prog: prog, Grid: grid, Block: block,
		Params:   map[string]kpl.Value{"m": kpl.IntVal(int64(m))},
		Bindings: map[string]devmem.Ptr{"out": ptr},
	}
}

// TestEngineOverlap: with an interleaved submission order, the copy engine
// and the compute engine work concurrently, so the span is shorter than the
// total busy time.
func TestEngineOverlap(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	g.InOrderIssue = true
	nBytes := 1 << 24 // ≈3 ms copy
	src, err := g.Mem.Alloc(nBytes)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, nBytes)
	lA := busyLaunch(t, g, 1400, 512, 256)
	lB := busyLaunch(t, g, 1400, 512, 256)
	g.CopyH2D(1, src, 0, payload)
	g.CopyH2D(2, src, 0, payload)
	g.Launch(1, lA)
	g.Launch(2, lB)
	g.CopyD2H(1, src, 0, nBytes, nil)
	g.CopyD2H(2, src, 0, nBytes, nil)
	span := g.Sync()
	busy := g.BusySeconds(EngineH2D) + g.BusySeconds(EngineD2H) + g.BusySeconds(EngineCompute)
	if span >= busy*0.95 {
		t.Errorf("span %.6f should be well below total busy %.6f (engines should overlap)", span, busy)
	}
}

// TestInOrderIssueHeadOfLineBlocking reproduces the paper's Fig. 3 and
// Eq. 7: a per-VP batched submission order costs ≈N(2Tm+Tk) under the single
// hardware queue, while the interleaved order costs ≈2Tm+N·max(Tm,Tk).
func TestInOrderIssueHeadOfLineBlocking(t *testing.T) {
	nBytes := 1 << 24
	payload := make([]byte, nBytes)
	// fresh is a device at simulated time zero holding the copy buffer and the
	// two programs' kernels.
	fresh := func() (*GPU, devmem.Ptr, *Launch, *Launch) {
		g := NewTimingOnly(arch.Quadro4000(), 1<<28)
		g.InOrderIssue = true
		src, err := g.Mem.Alloc(nBytes)
		if err != nil {
			t.Fatal(err)
		}
		return g, src, busyLaunch(t, g, 1400, 512, 256), busyLaunch(t, g, 1400, 512, 256)
	}

	// Measure Tm and Tk from the model itself.
	g, _, lA, _ := fresh()
	tm := CopyTime(&g.Arch, nBytes)
	_, iv, err := g.Launch(0, lA)
	if err != nil {
		t.Fatal(err)
	}
	tk := iv.Duration()

	run := func(order string) float64 {
		g, src, lA, lB := fresh()
		switch order {
		case "bad": // unoptimized: serialized dispatch of A's loop, then B's
			g.Serialize = true
			g.CopyH2D(1, src, 0, payload)
			g.Launch(1, lA)
			g.CopyD2H(1, src, 0, nBytes, nil)
			g.CopyH2D(2, src, 0, payload)
			g.Launch(2, lB)
			g.CopyD2H(2, src, 0, nBytes, nil)
		case "good": // interleaved, pipelined across the three engines
			g.Serialize = false
			g.CopyH2D(1, src, 0, payload)
			g.CopyH2D(2, src, 0, payload)
			g.Launch(1, lA)
			g.Launch(2, lB)
			g.CopyD2H(1, src, 0, nBytes, nil)
			g.CopyD2H(2, src, 0, nBytes, nil)
		}
		return g.Sync()
	}

	bad := run("bad")
	good := run("good")
	const n = 2
	wantBad := n * (2*tm + tk)
	wantGood := 2*tm + n*math.Max(tm, tk)
	if math.Abs(bad-wantBad) > 0.1*wantBad {
		t.Errorf("bad order = %.6f, Eq model %.6f", bad, wantBad)
	}
	if math.Abs(good-wantGood) > 0.1*wantGood {
		t.Errorf("good order = %.6f, Eq model %.6f", good, wantGood)
	}
	if speedup := bad / good; speedup < 1.3 {
		t.Errorf("interleaving speedup = %.3f, want ≈1.5 (3N/(2+N) for N=2)", speedup)
	}
}

// TestWaveQuantizationStaircase checks Fig. 10b: grids of 9 and 16 blocks
// take the same time on an 8-SM device, and 17 takes more.
func TestWaveQuantizationStaircase(t *testing.T) {
	g := arch.Quadro4000()
	shape := func(grid int) profile.LaunchShape {
		return profile.LaunchShape{Grid: grid, Block: 512}
	}
	var sigmaThread arch.ClassVec
	sigmaThread[arch.FP32] = 1000
	t9 := KernelTiming(&g, shape(9), sigmaThread, nil)
	t16 := KernelTiming(&g, shape(16), sigmaThread, nil)
	t17 := KernelTiming(&g, shape(17), sigmaThread, nil)
	t8 := KernelTiming(&g, shape(8), sigmaThread, nil)
	if t9.Seconds != t16.Seconds {
		t.Errorf("grid 9 (%.6f) and 16 (%.6f) should take the same time", t9.Seconds, t16.Seconds)
	}
	if !(t17.Seconds > t16.Seconds) {
		t.Errorf("grid 17 (%.6f) should exceed grid 16 (%.6f)", t17.Seconds, t16.Seconds)
	}
	if !(t8.Seconds < t9.Seconds) {
		t.Errorf("grid 8 (%.6f) should beat grid 9 (%.6f)", t8.Seconds, t9.Seconds)
	}
}

// TestParallelismScaling: the same total work in a wider grid finishes
// faster until the device saturates (the coalescing gain of Fig. 10a).
func TestParallelismScaling(t *testing.T) {
	g := arch.Quadro4000()
	totalInstr := 1e8
	timeFor := func(grid int) float64 {
		threads := grid * 512
		var sigmaThread arch.ClassVec
		sigmaThread[arch.FP32] = totalInstr / float64(threads)
		return KernelTiming(&g, profile.LaunchShape{Grid: grid, Block: 512}, sigmaThread, nil).Seconds
	}
	t1 := timeFor(1)
	t8 := timeFor(8)
	t64 := timeFor(64)
	if !(t8 < t1 && t64 < t8) {
		t.Errorf("wider grids should be faster: %.6f, %.6f, %.6f", t1, t8, t64)
	}
	// Speedup from 1→8 blocks should be near 8 (one SM each).
	if s := t1 / t8; s < 6 || s > 9 {
		t.Errorf("1→8 block speedup = %.2f, want ≈8", s)
	}
}

func TestLatencyBoundSmallKernels(t *testing.T) {
	g := arch.Quadro4000()
	// One warp, trivial work: latency path dominates issue.
	var sigmaThread arch.ClassVec
	sigmaThread[arch.Ld] = 2
	sigmaThread[arch.FP32] = 1
	tm := KernelTiming(&g, profile.LaunchShape{Grid: 1, Block: 32}, sigmaThread, nil)
	if tm.ComputeCycles != tm.LatencyCycles {
		t.Errorf("small kernel should be latency-bound: compute %v latency %v issue %v",
			tm.ComputeCycles, tm.LatencyCycles, tm.IssueCycles)
	}
	if tm.Waves != 1 || tm.ActiveSMs != 1 {
		t.Errorf("waves %d activeSMs %d", tm.Waves, tm.ActiveSMs)
	}
}

func TestKernelTimingDegenerateShape(t *testing.T) {
	g := arch.Quadro4000()
	var sigmaThread arch.ClassVec
	sigmaThread[arch.Int] = 10
	tm := KernelTiming(&g, profile.LaunchShape{Grid: 0, Block: 0}, sigmaThread, nil)
	if tm.Seconds <= 0 || math.IsNaN(tm.Seconds) {
		t.Errorf("degenerate shape time = %v", tm.Seconds)
	}
}

func TestKernelEnergyComponents(t *testing.T) {
	g := arch.Quadro4000()
	var sigma arch.ClassVec
	sigma[arch.FP64] = 1e6
	tm := Timing{Seconds: 0.01, CacheMisses: 1000}
	e := KernelEnergy(&g, sigma, tm)
	want := 1e6*g.EnergyPerInstr[arch.FP64] + 1000*g.MissEnergyJ + g.StaticPowerW*0.01
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("energy = %v, want %v", e, want)
	}
}

func TestStreamOrderingWithinStream(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	l := prepVecAdd(t, g, 1024, 2, 512)
	_, iv1, err := g.Launch(7, l)
	if err != nil {
		t.Fatal(err)
	}
	_, iv2, err := g.Launch(7, l)
	if err != nil {
		t.Fatal(err)
	}
	if iv2.Start < iv1.End {
		t.Errorf("stream ops must serialize: second starts %v before first ends %v", iv2.Start, iv1.End)
	}
	if got := g.SyncStream(7); got != iv2.End {
		t.Errorf("SyncStream = %v, want %v", got, iv2.End)
	}
	if got := g.Sync(); got < iv2.End {
		t.Errorf("Sync = %v, want ≥ %v", got, iv2.End)
	}
}

func TestBusyAndTrace(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	g.Trace = trace.New()
	l := prepVecAdd(t, g, 1024, 2, 512)
	if _, _, err := g.Launch(0, l); err != nil {
		t.Fatal(err)
	}
	if g.BusySeconds(EngineCompute) <= 0 {
		t.Error("compute engine should have busy time")
	}
	if len(g.Trace.Timeline().Records) == 0 {
		t.Error("trace should have records")
	}
}

// TestDynamicKernelSampling: a kernel with a data-dependent loop launches
// without a pre-supplied profile because the device samples threads first.
func TestDynamicKernelSampling(t *testing.T) {
	g := newQuadro(t)
	k := &kpl.Kernel{
		Name: "escape",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("c", kpl.CI(0)),
			kpl.For("esc", "j", kpl.CI(0), kpl.CI(64),
				kpl.If(kpl.GE(kpl.Mul(kpl.V("j"), kpl.V("j")), kpl.CI(100)), kpl.Break()),
				kpl.Let("c", kpl.Add(kpl.V("c"), kpl.CI(1))),
			),
			kpl.Store("out", kpl.TID(), kpl.V("c")),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := g.Mem.Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := g.Launch(0, &Launch{
		Kernel: k, Prog: prog, Grid: 2, Block: 32,
		Bindings: map[string]devmem.Ptr{"out": ptr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalInstr() <= 0 {
		t.Error("sampled σ should be positive")
	}
	raw, _, _ := g.CopyD2H(0, ptr, 0, 4*64, nil)
	if devmem.DecodeI32(raw)[0] != 10 {
		t.Errorf("escape result = %d, want 10", devmem.DecodeI32(raw)[0])
	}
}

func TestIntervalDuration(t *testing.T) {
	iv := Interval{Start: 1, End: 3.5}
	if iv.Duration() != 2.5 {
		t.Errorf("Duration = %v", iv.Duration())
	}
}

func TestSessionEnergy(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	if g.SessionEnergy() != 0 {
		t.Fatal("fresh session energy not zero")
	}
	l := busyLaunch(t, g, 500, 64, 256)
	p1, _, err := g.Launch(0, l)
	if err != nil {
		t.Fatal(err)
	}
	e1 := g.SessionEnergy()
	if e1 < p1.EnergyJ {
		t.Errorf("session energy %v below kernel energy %v", e1, p1.EnergyJ)
	}
	// A second launch adds energy.
	if _, _, err := g.Launch(0, l); err != nil {
		t.Fatal(err)
	}
	if e2 := g.SessionEnergy(); e2 <= e1 {
		t.Errorf("session energy did not grow: %v → %v", e1, e2)
	}
}

// TestMemsetRejectsHostileCounts: a guest-supplied count that is negative or
// far beyond the allocation is an error in both execution modes — not a
// makeslice panic, not a multi-GiB allocation of zeros.
func TestMemsetRejectsHostileCounts(t *testing.T) {
	for _, newGPU := range []func(arch.GPU, int64) *GPU{New, NewTimingOnly} {
		g := newGPU(arch.Quadro4000(), 1<<28)
		mode := g.Mode
		p, err := g.Mem.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{-1, 65, 1 << 33, math.MaxInt} {
			if _, err := g.Memset(0, p, 1, n, 0xFF); err == nil {
				t.Errorf("mode %v: Memset of %d bytes into 64 accepted", mode, n)
			}
		}
		if _, err := g.Memset(0, p, 0, 64, 0xFF); err != nil {
			t.Errorf("mode %v: in-range Memset after refusals: %v", mode, err)
		}
	}
}

// TestOpLabelsOnlyUnderTrace: the size label of a copy, a memset and a D2D
// charge reads as it always has on the timeline, and without a trace nobody
// reads it, so it is not built — the charge, which a merged launch of eight
// members makes 32 times, allocates nothing. The charge moves no bytes either.
func TestOpLabelsOnlyUnderTrace(t *testing.T) {
	g := newQuadro(t)
	g.Trace = trace.New()
	p, _ := g.Mem.Alloc(16)
	if _, err := g.CopyH2D(1, p, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.CopyD2H(1, p, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Memset(1, p, 0, 16, 7); err != nil {
		t.Fatal(err)
	}
	iv := g.ChargeD2D(1, 16)
	if want := 16 / (g.Arch.MemBWGBps * 1e9); math.Abs(iv.Duration()-want) > 1e-18 {
		t.Errorf("D2D charge of 16 bytes lasts %g s, want %g", iv.Duration(), want)
	}
	var labels []string
	for _, r := range g.Trace.Timeline().Records {
		labels = append(labels, r.Engine+":"+r.Label)
	}
	want := []string{"h2d:H2D 16B", "d2h:D2H 16B", "compute:memset 16B", "h2d:D2D 16B"}
	if !slices.Equal(labels, want) {
		t.Errorf("timeline labels %q, want %q", labels, want)
	}
	if got, _ := g.Mem.Read(p, 0, 16); !bytes.Equal(got, bytes.Repeat([]byte{7}, 16)) {
		t.Errorf("device bytes after the charge: % x", got)
	}

	g.Trace = nil
	if n := testing.AllocsPerRun(100, func() { g.ChargeD2D(1, 4096) }); n != 0 {
		t.Errorf("an untraced D2D charge allocates %v times, want 0", n)
	}
}
