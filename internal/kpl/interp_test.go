package kpl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// vecAddKernel builds out[i] = a[i] + b[i] for i < n.
func vecAddKernel() *Kernel {
	k := &Kernel{
		Name:   "vectorAdd",
		Params: []ParamDecl{{Name: "n", T: I32}},
		Bufs: []BufDecl{
			{Name: "a", Elem: F32, Access: AccessSeq, ReadOnly: true},
			{Name: "b", Elem: F32, Access: AccessSeq, ReadOnly: true},
			{Name: "out", Elem: F32, Access: AccessSeq},
		},
		Body: []Stmt{
			If(LT(TID(), P("n")),
				Store("out", TID(), Add(Load("a", TID()), Load("b", TID()))),
			),
		},
	}
	if err := k.Validate(); err != nil {
		panic(err)
	}
	return k
}

func TestVecAddSemantics(t *testing.T) {
	k := vecAddKernel()
	n := 100
	a := NewBuffer(F32, n)
	b := NewBuffer(F32, n)
	out := NewBuffer(F32, n)
	for i := 0; i < n; i++ {
		a.F32s[i] = float32(i)
		b.F32s[i] = float32(2 * i)
	}
	env := NewEnv(128).SetInt("n", int64(n)).Bind("a", a).Bind("b", b).Bind("out", out)
	st := NewStats()
	if err := k.ExecAll(env, st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out.F32s[i] != float32(3*i) {
			t.Fatalf("out[%d] = %v, want %v", i, out.F32s[i], float32(3*i))
		}
	}
	// 128 threads, each: 1 branch; 100 of them: 2 loads, 1 store, 1 FP add,
	// plus compare (Int class since tid,n are ints).
	if got := st.Instr[arch.Branch]; got != 128 {
		t.Errorf("branch count = %v, want 128", got)
	}
	if got := st.Instr[arch.Ld]; got != 200 {
		t.Errorf("load count = %v, want 200", got)
	}
	if got := st.Instr[arch.St]; got != 100 {
		t.Errorf("store count = %v, want 100", got)
	}
	if got := st.Instr[arch.FP32]; got != 100 {
		t.Errorf("fp32 count = %v, want 100", got)
	}
	if st.Threads != 128 {
		t.Errorf("threads = %d, want 128", st.Threads)
	}
}

func TestLoopAndTrips(t *testing.T) {
	// out[tid] = sum of k for k in [0, m)
	k := &Kernel{
		Name:   "sumloop",
		Params: []ParamDecl{{Name: "m", T: I32}},
		Bufs:   []BufDecl{{Name: "out", Elem: I32, Access: AccessSeq}},
		Body: []Stmt{
			Let("acc", CI(0)),
			For("main", "k", CI(0), P("m"),
				Let("acc", Add(V("acc"), V("k"))),
			),
			Store("out", TID(), V("acc")),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(I32, 4)
	env := NewEnv(4).SetInt("m", 10).Bind("out", out)
	st := NewStats()
	if err := k.ExecAll(env, st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out.I32s[i] != 45 {
			t.Fatalf("out[%d] = %d, want 45", i, out.I32s[i])
		}
	}
	if got := st.Trips["main"]; got != 40 {
		t.Errorf("trips = %d, want 40", got)
	}
	if got := st.Entries["main"]; got != 4 {
		t.Errorf("entries = %d, want 4", got)
	}
	if got := st.MeanTrips("main"); got != 10 {
		t.Errorf("mean trips = %v, want 10", got)
	}
	if got := st.MeanTrips("missing"); got != 0 {
		t.Errorf("mean trips of missing label = %v, want 0", got)
	}
}

func TestBreakLimitsIterations(t *testing.T) {
	// Count iterations until k*k >= 50.
	k := &Kernel{
		Name: "escape",
		Bufs: []BufDecl{{Name: "out", Elem: I32, Access: AccessSeq}},
		Body: []Stmt{
			Let("c", CI(0)),
			For("esc", "k", CI(0), CI(1000),
				If(GE(Mul(V("k"), V("k")), CI(50)), Break()),
				Let("c", Add(V("c"), CI(1))),
			),
			Store("out", TID(), V("c")),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(I32, 1)
	env := NewEnv(1).Bind("out", out)
	if err := k.ExecAll(env, nil); err != nil {
		t.Fatal(err)
	}
	if out.I32s[0] != 8 { // 0..7 have k²<50
		t.Fatalf("escape count = %d, want 8", out.I32s[0])
	}
}

func TestIntrinsicsAndPrecision(t *testing.T) {
	k := &Kernel{
		Name: "mathops",
		Bufs: []BufDecl{
			{Name: "in", Elem: F64, Access: AccessSeq, ReadOnly: true},
			{Name: "out", Elem: F64, Access: AccessSeq},
		},
		Body: []Stmt{
			Let("x", Load("in", TID())),
			Store("out", TID(), Add(Sqrt(V("x")), Mul(Exp(Neg(V("x"))), Sin(V("x"))))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewBuffer(F64, 8)
	out := NewBuffer(F64, 8)
	for i := range in.F64s {
		in.F64s[i] = float64(i) * 0.7
	}
	env := NewEnv(8).Bind("in", in).Bind("out", out)
	st := NewStats()
	if err := k.ExecAll(env, st); err != nil {
		t.Fatal(err)
	}
	for i, x := range in.F64s {
		want := math.Sqrt(x) + math.Exp(-x)*math.Sin(x)
		if math.Abs(out.F64s[i]-want) > 1e-12 {
			t.Fatalf("out[%d] = %v, want %v", i, out.F64s[i], want)
		}
	}
	// sqrt=4, exp=8, sin=10, neg=1, add=1, mul=1 → 25 FP64 per thread.
	if got := st.Instr[arch.FP64]; got != 25*8 {
		t.Errorf("fp64 count = %v, want %v", got, 25*8)
	}
}

func TestF32Rounding(t *testing.T) {
	// f32 arithmetic must round to float32 at every step.
	k := &Kernel{
		Name: "round32",
		Bufs: []BufDecl{{Name: "out", Elem: F32, Access: AccessSeq}},
		Body: []Stmt{
			Store("out", TID(), Add(CF(1e8), CF(1))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(F32, 1)
	if err := k.ExecAll(NewEnv(1).Bind("out", out), nil); err != nil {
		t.Fatal(err)
	}
	if out.F32s[0] != float32(1e8)+float32(1) {
		t.Fatalf("f32 rounding mismatch: %v", out.F32s[0])
	}
}

func TestIntegerAndBitwiseOps(t *testing.T) {
	k := &Kernel{
		Name: "bits",
		Bufs: []BufDecl{{Name: "out", Elem: I32, Access: AccessSeq}},
		Body: []Stmt{
			Let("x", Shl(CI(1), CI(10))),                                 // 1024
			Let("x", Or(V("x"), CI(5))),                                  // 1029
			Let("x", Xor(V("x"), CI(1))),                                 // 1028
			Let("x", And(V("x"), CI(0xFFF))),                             // 1028
			Let("x", Shr(V("x"), CI(2))),                                 // 257
			Let("x", Mod(V("x"), CI(100))),                               // 57
			Let("x", Sub(V("x"), Neg(CI(3)))),                            // 60
			Let("x", Sel(GT(V("x"), CI(50)), Mul(V("x"), CI(2)), CI(0))), // 120
			Store("out", TID(), V("x")),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(I32, 1)
	st := NewStats()
	if err := k.ExecAll(NewEnv(1).Bind("out", out), st); err != nil {
		t.Fatal(err)
	}
	if out.I32s[0] != 120 {
		t.Fatalf("bit chain = %d, want 120", out.I32s[0])
	}
	if st.Instr[arch.Bit] != 5 {
		t.Errorf("bit count = %v, want 5", st.Instr[arch.Bit])
	}
}

func TestDivModByZeroAreQuiet(t *testing.T) {
	k := &Kernel{
		Name: "divzero",
		Bufs: []BufDecl{{Name: "out", Elem: I32, Access: AccessSeq}},
		Body: []Stmt{
			Store("out", TID(), Add(Div(CI(7), CI(0)), Mod(CI(7), CI(0)))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(I32, 1)
	if err := k.ExecAll(NewEnv(1).Bind("out", out), nil); err != nil {
		t.Fatal(err)
	}
	if out.I32s[0] != 0 {
		t.Fatalf("div/mod by zero = %d, want 0", out.I32s[0])
	}
}

// TestInterpreterErrors: a thread's runtime failure is a *kpl.Error from the
// interpreter and, for a kernel that compiles, from the engine; a kernel the
// compiler refuses is its refusal on the engine.
func TestInterpreterErrors(t *testing.T) {
	cases := []struct {
		name    string
		k       *Kernel
		refused bool
	}{
		{"oob store", &Kernel{
			Name: "oob",
			Bufs: []BufDecl{{Name: "out", Elem: F32}},
			Body: []Stmt{Store("out", CI(99), CF(1))},
		}, false},
		{"oob load", &Kernel{
			Name: "oobld",
			Bufs: []BufDecl{{Name: "in", Elem: F32}, {Name: "out", Elem: F32}},
			Body: []Stmt{Store("out", TID(), Load("in", CI(-1)))},
		}, false},
		{"undefined var", &Kernel{
			Name: "novar",
			Bufs: []BufDecl{{Name: "out", Elem: F32}},
			Body: []Stmt{Store("out", TID(), V("ghost"))},
		}, true},
	}
	for _, tc := range cases {
		env := NewEnv(1)
		for _, b := range tc.k.Bufs {
			env.Bind(b.Name, NewBuffer(b.Elem, 4))
		}
		if _, ok := tc.k.InterpretAll(env, nil).(*Error); !ok {
			t.Errorf("%s: the interpreter's error is not a *kpl.Error", tc.name)
		}
		err := tc.k.ExecAll(env, nil)
		if _, ok := err.(*Error); ok == tc.refused {
			t.Errorf("%s: engine error %T %v, refused = %v", tc.name, err, err, tc.refused)
		}
		if _, ok := err.(*unsupportedError); ok != tc.refused {
			t.Errorf("%s: engine error %T %v, refused = %v", tc.name, err, err, tc.refused)
		}
	}
}

func TestUnboundBufferAndParam(t *testing.T) {
	k := vecAddKernel()
	env := NewEnv(4) // nothing bound
	if err := k.ExecAll(env, nil); err == nil {
		t.Fatal("expected error for unbound param/buffer")
	}
}

func TestAtomicAdd(t *testing.T) {
	// All threads add tid into out[0]: a reduction.
	k := &Kernel{
		Name: "atomics",
		Bufs: []BufDecl{{Name: "out", Elem: I32, Access: AccessBroadcast}},
		Body: []Stmt{AtomicAdd("out", CI(0), TID())},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(I32, 1)
	if err := k.ExecAll(NewEnv(100).Bind("out", out), nil); err != nil {
		t.Fatal(err)
	}
	if out.I32s[0] != 4950 {
		t.Fatalf("atomic sum = %d, want 4950", out.I32s[0])
	}
}

// Property: interpreting N threads of vectorAdd matches the native Go loop
// for arbitrary inputs.
func TestVecAddMatchesNativeProperty(t *testing.T) {
	k := vecAddKernel()
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 256 {
			raw = raw[:256]
		}
		n := len(raw)
		a := NewBuffer(F32, n)
		b := NewBuffer(F32, n)
		out := NewBuffer(F32, n)
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 1
			}
			a.F32s[i] = v
			b.F32s[i] = v * 2
		}
		env := NewEnv(n).SetInt("n", int64(n)).Bind("a", a).Bind("b", b).Bind("out", out)
		if err := k.ExecAll(env, nil); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if out.F32s[i] != a.F32s[i]+b.F32s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SampleStats scales to approximately the full-launch counts for a
// uniform kernel.
func TestSampleStatsApproximatesFull(t *testing.T) {
	k := vecAddKernel()
	n := 1024
	a := NewBuffer(F32, n)
	b := NewBuffer(F32, n)
	out := NewBuffer(F32, n)
	env := NewEnv(n).SetInt("n", int64(n)).Bind("a", a).Bind("b", b).Bind("out", out)

	full := NewStats()
	if err := k.ExecAll(env, full); err != nil {
		t.Fatal(err)
	}
	sampled, err := k.SampleStats(env, 64)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < int(arch.NumClasses); c++ {
		f, s := full.Instr[c], sampled.Instr[c]
		if f == 0 && s == 0 {
			continue
		}
		if math.Abs(f-s) > 0.05*math.Max(f, 1) {
			t.Errorf("class %v: full %v vs sampled %v", arch.InstrClass(c), f, s)
		}
	}
	// Sampling must not mutate the caller's buffers.
	for i := range out.F32s {
		if i >= 0 && out.F32s[i] != a.F32s[i]+b.F32s[i] {
			t.Fatalf("SampleStats mutated caller buffers at %d", i)
		}
	}
}

func TestSampleStatsSmallLaunch(t *testing.T) {
	k := vecAddKernel()
	n := 4
	env := NewEnv(n).SetInt("n", int64(n)).
		Bind("a", NewBuffer(F32, n)).Bind("b", NewBuffer(F32, n)).Bind("out", NewBuffer(F32, n))
	st, err := k.SampleStats(env, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Threads != n {
		t.Errorf("threads = %d, want %d", st.Threads, n)
	}
}

func TestValueConversions(t *testing.T) {
	if v := F64Val(3.9).Convert(I32); v.I != 3 {
		t.Errorf("f64→i32 = %d, want 3", v.I)
	}
	if v := IntVal(7).Convert(F64); v.F != 7 {
		t.Errorf("i32→f64 = %v, want 7", v.F)
	}
	if v := F64Val(1e-45).Convert(F32); v.F != float64(float32(1e-45)) {
		t.Errorf("f64→f32 rounding: %v", v.F)
	}
	if !IntVal(1).Bool() || IntVal(0).Bool() {
		t.Error("int Bool misbehaves")
	}
	if !F64Val(0.5).Bool() || F64Val(0).Bool() {
		t.Error("float Bool misbehaves")
	}
	if IntVal(5).String() != "5:i32" {
		t.Errorf("String: %s", IntVal(5))
	}
}

func TestBufferTypedViews(t *testing.T) {
	for _, typ := range []Type{I32, F32, F64} {
		b := NewBuffer(typ, 10)
		if b.Len() != 10 {
			t.Errorf("%v: len %d", typ, b.Len())
		}
		b.Set(3, F64Val(2.5))
		got := b.At(3)
		want := 2.5
		if typ == I32 {
			want = 2
		}
		if got.Float() != want {
			t.Errorf("%v: At(3) = %v, want %v", typ, got.Float(), want)
		}
		b.AddAt(3, IntVal(1))
		if b.At(3).Float() != want+1 {
			t.Errorf("%v: AddAt = %v, want %v", typ, b.At(3).Float(), want+1)
		}
		if b.Bytes() != 10*typ.Size() {
			t.Errorf("%v: Bytes = %d", typ, b.Bytes())
		}
	}
}
