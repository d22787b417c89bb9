package kir

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/kpl"
)

func mustAnalyze(t *testing.T, k *kpl.Kernel) *Program {
	t.Helper()
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// saxpyKernel: out[i] = a*x[i] + y[i] for i in the elems-per-thread loop.
func saxpyKernel() *kpl.Kernel {
	ept := kpl.Div(kpl.Add(kpl.P("n"), kpl.Sub(kpl.NT(), kpl.CI(1))), kpl.NT())
	return &kpl.Kernel{
		Name: "saxpy",
		Params: []kpl.ParamDecl{
			{Name: "n", T: kpl.I32},
			{Name: "a", T: kpl.F32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "x", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "y", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			kpl.For("elems", "j", kpl.CI(0), ept,
				kpl.Let("i", kpl.Add(kpl.TID(), kpl.Mul(kpl.V("j"), kpl.NT()))),
				kpl.If(kpl.LT(kpl.V("i"), kpl.P("n")),
					kpl.Store("out", kpl.V("i"),
						kpl.Add(kpl.Mul(kpl.P("a"), kpl.Load("x", kpl.V("i"))), kpl.Load("y", kpl.V("i")))),
				),
			),
		},
	}
}

func TestAnalyzeBlockStructure(t *testing.T) {
	p := mustAnalyze(t, saxpyKernel())
	blocks := p.Blocks()
	// root, loop "elems", branch arm.
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	if blocks[0].Kind != TripRoot || blocks[1].Kind != TripLoop || blocks[2].Kind != TripBranch {
		t.Fatalf("block kinds: %v %v %v", blocks[0].Kind, blocks[1].Kind, blocks[2].Kind)
	}
	if blocks[1].Label != "elems" {
		t.Errorf("loop label %q", blocks[1].Label)
	}
	if blocks[1].HasBreak {
		t.Error("loop should not be marked break-carrying")
	}
	// Branch arm: 2 loads, 1 store, 2 FP32 (mul+add), index arithmetic.
	arm := blocks[2]
	if arm.Mu[arch.Ld] != 2 || arm.Mu[arch.St] != 1 || arm.Mu[arch.FP32] != 2 {
		t.Errorf("arm µ = %+v", arm.Mu)
	}
	if arm.Weight != 0.5 {
		t.Errorf("arm weight = %v, want default 0.5", arm.Weight)
	}
}

// TestSigmaMatchesInterpreter is the core consistency property of the IR:
// for a kernel with fully static control flow and always-taken branches
// (weight forced to 1), Eq. 1's Σλµ must equal the interpreter's dynamic
// instruction counts exactly.
func TestSigmaMatchesInterpreter(t *testing.T) {
	// Same structure as saxpy but with the bounds arranged so every thread's
	// guard is taken: n == NThreads and one element per thread.
	k := saxpyKernel()
	k.Body[0].(*kpl.ForStmt).Body[1].(*kpl.IfStmt).TakenProb = 1.0
	p := mustAnalyze(t, k)

	n := 64
	x := kpl.NewBuffer(kpl.F32, n)
	y := kpl.NewBuffer(kpl.F32, n)
	out := kpl.NewBuffer(kpl.F32, n)
	for i := 0; i < n; i++ {
		x.F32s[i] = float32(i)
		y.F32s[i] = 1
	}
	env := kpl.NewEnv(n).SetInt("n", int64(n)).SetF32("a", 2).
		Bind("x", x).Bind("y", y).Bind("out", out)
	st := kpl.NewStats()
	if err := k.InterpretAll(env, st); err != nil {
		t.Fatal(err)
	}

	neutral := arch.Quadro4000() // Expand == 1 everywhere
	sigma, err := p.Sigma(&neutral, Launch{
		NThreads: n,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(int64(n)), "a": kpl.F32Val(2)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < int(arch.NumClasses); c++ {
		if math.Abs(sigma[c]-st.Instr[c]) > 1e-9 {
			t.Errorf("class %v: σ=%v interp=%v", arch.InstrClass(c), sigma[c], st.Instr[c])
		}
	}
	// Semantics check too.
	for i := 0; i < n; i++ {
		if out.F32s[i] != 2*float32(i)+1 {
			t.Fatalf("out[%d] = %v", i, out.F32s[i])
		}
	}
}

func TestSigmaExpansion(t *testing.T) {
	k := &kpl.Kernel{
		Name: "fp64work",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F64, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Store("out", kpl.TID(), kpl.Mul(kpl.CD(2), kpl.CD(3))),
		},
	}
	p := mustAnalyze(t, k)
	tegra := arch.TegraK1() // Expand[FP64] = 1.5
	sigma, err := p.Sigma(&tegra, Launch{NThreads: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sigma[arch.FP64]; got != 150 {
		t.Errorf("expanded FP64 = %v, want 150", got)
	}
	if got := sigma[arch.St]; got != 100 {
		t.Errorf("St = %v, want 100", got)
	}
}

func TestSigmaPerThread(t *testing.T) {
	p := mustAnalyze(t, saxpyKernel())
	g := arch.Quadro4000()
	l := Launch{NThreads: 128, Params: map[string]kpl.Value{
		"n": kpl.IntVal(128), "a": kpl.F32Val(1),
	}}
	whole, err := p.Sigma(&g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	per, err := p.SigmaPerThread(&g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(per.Sum()*128-whole.Sum()) > 1e-9 {
		t.Errorf("per-thread × N != whole: %v vs %v", per.Sum()*128, whole.Sum())
	}
	if _, err := p.SigmaPerThread(&g, Launch{NThreads: 0}, nil); err == nil {
		t.Error("SigmaPerThread accepted zero threads")
	}
}

func TestDynamicLambdaFromStats(t *testing.T) {
	// Escape-style loop with break: λ must come from dynamic stats.
	k := &kpl.Kernel{
		Name: "escape",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("c", kpl.CI(0)),
			kpl.For("esc", "k", kpl.CI(0), kpl.CI(100),
				kpl.If(kpl.GE(kpl.Mul(kpl.V("k"), kpl.V("k")), kpl.CI(50)), kpl.Break()),
				kpl.Let("c", kpl.Add(kpl.V("c"), kpl.CI(1))),
			),
			kpl.Store("out", kpl.TID(), kpl.V("c")),
		},
	}
	p := mustAnalyze(t, k)
	if !p.NeedsDynamicProfile() {
		t.Fatal("escape loop should need a dynamic profile")
	}
	g := arch.Quadro4000()
	l := Launch{NThreads: 8}

	if _, err := p.Sigma(&g, l, nil); err == nil {
		t.Fatal("Sigma without dynamic stats should fail")
	}

	env := kpl.NewEnv(8).Bind("out", kpl.NewBuffer(kpl.I32, 8))
	st := kpl.NewStats()
	if err := k.ExecAll(env, st); err != nil {
		t.Fatal(err)
	}
	sigma, err := p.Sigma(&g, l, st)
	if err != nil {
		t.Fatal(err)
	}
	if sigma.Sum() <= 0 {
		t.Fatal("σ should be positive")
	}
	// The loop runs 9 iterations per thread (break at k=8... the iteration
	// executing the break still counts as a trip).
	loop := p.Blocks()[1]
	if loop.Label != "esc" || !loop.HasBreak {
		t.Fatalf("unexpected loop block %+v", loop)
	}
	if got := st.MeanTrips("esc"); got != 9 {
		t.Errorf("mean trips = %v, want 9", got)
	}
}

func TestStaticLoopWithParamBounds(t *testing.T) {
	k := &kpl.Kernel{
		Name:   "chain",
		Params: []kpl.ParamDecl{{Name: "m", T: kpl.I32}},
		Bufs:   []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("acc", kpl.CF(0)),
			kpl.For("outer", "i", kpl.CI(0), kpl.P("m"),
				kpl.For("inner", "j", kpl.CI(0), kpl.CI(4),
					kpl.Let("acc", kpl.Add(kpl.V("acc"), kpl.CF(1))),
				),
			),
			kpl.Store("out", kpl.TID(), kpl.V("acc")),
		},
	}
	p := mustAnalyze(t, k)
	if p.NeedsDynamicProfile() {
		t.Fatal("static bounds should not need a profile")
	}
	g := arch.Quadro4000()
	sigma, err := p.Sigma(&g, Launch{NThreads: 2, Params: map[string]kpl.Value{"m": kpl.IntVal(3)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// FP32 adds: 2 threads × 3 outer × 4 inner = 24.
	if got := sigma[arch.FP32]; got != 24 {
		t.Errorf("FP32 = %v, want 24", got)
	}
	// Verify against the interpreter exactly.
	env := kpl.NewEnv(2).SetInt("m", 3).Bind("out", kpl.NewBuffer(kpl.F32, 2))
	st := kpl.NewStats()
	if err := k.InterpretAll(env, st); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < int(arch.NumClasses); c++ {
		if math.Abs(sigma[c]-st.Instr[c]) > 1e-9 {
			t.Errorf("class %v: σ=%v interp=%v", arch.InstrClass(c), sigma[c], st.Instr[c])
		}
	}
}

// Property: σ scales linearly in the thread count for thread-uniform kernels.
func TestSigmaLinearInThreads(t *testing.T) {
	p := mustAnalyze(t, saxpyKernel())
	g := arch.Quadro4000()
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		l := func(threads int) Launch {
			return Launch{NThreads: threads, Params: map[string]kpl.Value{
				"n": kpl.IntVal(int64(threads)), "a": kpl.F32Val(1),
			}}
		}
		s1, err := p.Sigma(&g, l(n), nil)
		if err != nil {
			return false
		}
		s2, err := p.Sigma(&g, l(2*n), nil)
		if err != nil {
			return false
		}
		// n == threads keeps per-thread work identical, so doubling threads
		// doubles σ.
		return math.Abs(s2.Sum()-2*s1.Sum()) < 1e-6*(1+s2.Sum())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRejectsInvalidKernel(t *testing.T) {
	if _, err := Analyze(&kpl.Kernel{}); err == nil {
		t.Fatal("Analyze accepted invalid kernel")
	}
	// Variable used before assignment is a kir-level error.
	k := &kpl.Kernel{
		Name: "ghostvar",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{kpl.Store("out", kpl.TID(), kpl.V("ghost"))},
	}
	if _, err := Analyze(k); err == nil {
		t.Fatal("Analyze accepted use-before-assignment")
	}
}

// TestAnalyzeRefusesUncompilable: a kernel that validates, and that the
// analysis alone would accept, but that kpl.Compile refuses is refused at
// admission with Compile's error.
func TestAnalyzeRefusesUncompilable(t *testing.T) {
	k := &kpl.Kernel{
		Name: "tenth",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{kpl.Store("out", kpl.TID(), kpl.Mul(&kpl.Const{T: kpl.F32, F: 0.1}, kpl.TID()))},
	}
	_, want := kpl.Compile(k)
	if want == nil {
		t.Fatal("Compile accepted an f32 constant float32 does not hold")
	}
	if p, err := Analyze(k); p != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Analyze = %v, %v; want Compile's error %q", p, err, want)
	}
}

func TestBranchWeights(t *testing.T) {
	k := &kpl.Kernel{
		Name: "branchy",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.IfElse(kpl.LT(kpl.TID(), kpl.CI(10)),
				[]kpl.Stmt{kpl.Store("out", kpl.TID(), kpl.CF(1))},
				[]kpl.Stmt{kpl.Store("out", kpl.TID(), kpl.CF(2))},
			),
		},
	}
	p := mustAnalyze(t, k)
	blocks := p.Blocks()
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[1].Weight+blocks[2].Weight != 1 {
		t.Errorf("arm weights %v + %v != 1", blocks[1].Weight, blocks[2].Weight)
	}
	// With default 0.5 weights, expected stores = NThreads (both arms store).
	g := arch.Quadro4000()
	sigma, err := p.Sigma(&g, Launch{NThreads: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sigma[arch.St] != 100 {
		t.Errorf("St = %v, want 100", sigma[arch.St])
	}
}

func TestNestedBreakDoesNotMarkOuterLoop(t *testing.T) {
	k := &kpl.Kernel{
		Name: "nested",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.For("outer", "i", kpl.CI(0), kpl.CI(3),
				kpl.For("inner", "j", kpl.CI(0), kpl.CI(10),
					kpl.If(kpl.GT(kpl.V("j"), kpl.V("i")), kpl.Break()),
				),
			),
			kpl.Store("out", kpl.TID(), kpl.CI(1)),
		},
	}
	p := mustAnalyze(t, k)
	var outer, inner *Block
	for _, b := range p.Blocks() {
		switch b.Label {
		case "outer":
			outer = b
		case "inner":
			inner = b
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("missing loop blocks")
	}
	if outer.HasBreak {
		t.Error("outer loop wrongly marked break-carrying")
	}
	if !inner.HasBreak {
		t.Error("inner loop should be break-carrying")
	}
}

func TestBlockReport(t *testing.T) {
	p := mustAnalyze(t, saxpyKernel())
	g := arch.Quadro4000()
	l := Launch{NThreads: 64, Params: map[string]kpl.Value{
		"n": kpl.IntVal(64), "a": kpl.F32Val(1),
	}}
	rep, err := p.BlockReport(&g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"σ derivation for saxpy", "root", "elems", "loop", "branch", "σ{K,T}"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// The report's total must equal Sigma.
	sigma, err := p.Sigma(&g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.0f", sigma.Sum())
	if !strings.Contains(rep, want) {
		t.Errorf("report total missing %s:\n%s", want, rep)
	}
	// Dynamic kernels without stats error cleanly.
	esc := mustAnalyze(t, &kpl.Kernel{
		Name: "escRep",
		Bufs: []kpl.BufDecl{{Name: "o", Elem: kpl.I32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.For("e", "i", kpl.CI(0), kpl.CI(9),
				kpl.If(kpl.GT(kpl.V("i"), kpl.CI(3)), kpl.Break()),
			),
			kpl.Store("o", kpl.TID(), kpl.CI(1)),
		},
	})
	if _, err := esc.BlockReport(&g, Launch{NThreads: 4}, nil); err == nil {
		t.Error("dynamic report without stats should fail")
	}
}

// TestIdentityMixesHints: the identity sums one hash per buffer's cache hints,
// so unmixed, two kernels whose buffers trade L2 hints that differ only in the
// low bit of their last byte hashed — with these names and strides, the flip
// goes the same way in both hashes — sum as before, and one kernel's pricing
// would be served to the other.
func TestIdentityMixesHints(t *testing.T) {
	small := math.Float64frombits(0x3EE0000000000000) // 2⁻¹⁷: 0.5's bits but the exponent's low bit
	identity := func(l2In, l2Out float64) uint64 {
		k := &kpl.Kernel{
			Name: "hinted",
			Bufs: []kpl.BufDecl{
				{Name: "in", Elem: kpl.F32, Access: kpl.AccessStrided, Stride: 1, L2Fraction: l2In, ReadOnly: true},
				{Name: "out", Elem: kpl.F32, Access: kpl.AccessStrided, Stride: 2, L2Fraction: l2Out},
			},
			Body: []kpl.Stmt{kpl.Store("out", kpl.TID(), kpl.Load("in", kpl.TID()))},
		}
		p, err := Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		return p.Identity()
	}
	if identity(0.5, small) == identity(small, 0.5) {
		t.Error("buffers trading their L2 hints leave the identity as it was")
	}
	if identity(0.5, small) != identity(0.5, small) {
		t.Error("equal kernels have different identities")
	}
}
