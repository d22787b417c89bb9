package kpl

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// diffEnv builds a deterministic environment for n threads with the named
// buffers (all of length n unless overridden).
func diffEnv(n int, bufs map[string]Type) *Env {
	env := NewEnv(n)
	for name, t := range bufs {
		b := NewBuffer(t, n)
		for i := 0; i < n; i++ {
			v := int64(i*7%23) - 5
			switch t {
			case I32:
				b.Set(i, IntVal(v))
			case F32:
				b.Set(i, F32Val(float64(v)/4))
			default:
				b.Set(i, F64Val(float64(v)/4))
			}
		}
		env.Bind(name, b)
	}
	return env
}

func cloneEnvT(env *Env) *Env {
	out := &Env{NThreads: env.NThreads, Params: env.Params, Bufs: map[string]*Buffer{}}
	for name, b := range env.Bufs {
		if b != nil { // a nil binding is an unbound name
			out.Bufs[name] = cloneBuffer(b)
		}
	}
	return out
}

func buffersIdentical(t *testing.T, name string, a, b *Buffer) {
	t.Helper()
	if a.Len() != b.Len() || a.Elem != b.Elem {
		t.Fatalf("buffer %s: shape mismatch", name)
	}
	for i := 0; i < a.Len(); i++ {
		switch a.Elem {
		case F32:
			if math.Float32bits(a.F32s[i]) != math.Float32bits(b.F32s[i]) {
				t.Fatalf("buffer %s[%d]: interp %v vs compiled %v", name, i, a.F32s[i], b.F32s[i])
			}
		case F64:
			if math.Float64bits(a.F64s[i]) != math.Float64bits(b.F64s[i]) {
				t.Fatalf("buffer %s[%d]: interp %v vs compiled %v", name, i, a.F64s[i], b.F64s[i])
			}
		default:
			if a.I32s[i] != b.I32s[i] {
				t.Fatalf("buffer %s[%d]: interp %d vs compiled %d", name, i, a.I32s[i], b.I32s[i])
			}
		}
	}
}

func statsIdentical(t *testing.T, a, b *Stats) {
	t.Helper()
	if a.Instr != b.Instr {
		t.Errorf("Instr: interp %v vs compiled %v", a.Instr, b.Instr)
	}
	if a.Threads != b.Threads {
		t.Errorf("Threads: interp %d vs compiled %d", a.Threads, b.Threads)
	}
	for what, pair := range map[string][2]map[string]int64{
		"Trips":   {a.Trips, b.Trips},
		"Entries": {a.Entries, b.Entries},
		"BufLd":   {a.BufLd, b.BufLd},
		"BufSt":   {a.BufSt, b.BufSt},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: interp %v vs compiled %v", what, pair[0], pair[1])
		}
	}
}

// diffKernel asserts bit-identity between the interpreter and the compiled
// engine — buffers, statistics, and error text — on the given environment.
// The kernel must compile (no fallback): a vacuous comparison would hide
// compiler gaps.
func diffKernel(t *testing.T, k *Kernel, env *Env) {
	t.Helper()
	if err := k.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	p, err := Compile(k)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	diffRuns(t, env,
		func(e *Env, st *Stats) error { return k.InterpretAll(e, st) },
		func(e *Env, st *Stats) error { return p.ExecAll(e, st) })
}

// diffRuns runs the reference and the engine under test on copies of env and
// asserts identical error text, buffers and statistics.
func diffRuns(t *testing.T, env *Env, interp, compiled func(*Env, *Stats) error) {
	t.Helper()
	envI, envC := cloneEnvT(env), cloneEnvT(env)
	stI, stC := NewStats(), NewStats()
	errI := interp(envI, stI)
	errC := compiled(envC, stC)

	iMsg, cMsg := "", ""
	if errI != nil {
		iMsg = errI.Error()
	}
	if errC != nil {
		cMsg = errC.Error()
	}
	if iMsg != cMsg {
		t.Fatalf("error mismatch:\n  interp:   %q\n  compiled: %q", iMsg, cMsg)
	}
	for name, a := range envI.Bufs {
		buffersIdentical(t, name, a, envC.Bufs[name])
	}
	statsIdentical(t, stI, stC)
}

// opsI32 exercises every integer operator, including quiet division by zero
// and shift masking, plus bitwise unary and select.
func opsI32() *Kernel {
	acc := func(e Expr) Stmt { return Let("acc", e) }
	return &Kernel{
		Name: "diff_ops_i32",
		Bufs: []BufDecl{
			{Name: "a", Elem: I32, ReadOnly: true},
			{Name: "out", Elem: I32},
		},
		Body: []Stmt{
			Let("x", Load("a", TID())),
			Let("y", Load("a", Mod(Add(TID(), CI(1)), NT()))),
			acc(Add(Mul(V("x"), V("y")), Sub(V("x"), CI(3)))),
			acc(Add(V("acc"), Div(V("x"), V("y")))), // y may be zero: quiet div
			acc(Add(V("acc"), Mod(V("y"), V("x")))), // x may be zero: quiet mod
			acc(Add(V("acc"), Min(V("x"), V("y")))),
			acc(Add(V("acc"), Max(V("x"), Neg(V("y"))))),
			acc(Add(V("acc"), Mul(LT(V("x"), V("y")), CI(2)))),
			acc(Add(V("acc"), Add(LE(V("x"), V("y")), GT(V("x"), CI(0))))),
			acc(Add(V("acc"), Add(GE(V("x"), CI(-2)), Add(EQ(V("x"), V("y")), NE(V("x"), V("y")))))),
			acc(Xor(V("acc"), And(V("x"), CI(255)))),
			acc(Or(V("acc"), Shl(And(V("y"), CI(3)), CI(2)))),
			acc(Add(V("acc"), Shr(V("x"), And(V("y"), CI(7))))),
			acc(Add(V("acc"), Not(And(V("x"), CI(15))))),
			acc(Add(V("acc"), Abs(V("y")))),
			acc(Sel(GT(V("acc"), CI(100)), Sub(V("acc"), CI(50)), V("acc"))),
			Store("out", TID(), V("acc")),
		},
	}
}

// opsFloat exercises the floating-point operators and intrinsics on f32 and
// f64, mixed-type promotion, casts, and the I32→F32 intrinsic rule.
func opsFloat() *Kernel {
	return &Kernel{
		Name: "diff_ops_float",
		Bufs: []BufDecl{
			{Name: "f", Elem: F32, ReadOnly: true},
			{Name: "d", Elem: F64, ReadOnly: true},
			{Name: "outf", Elem: F32},
			{Name: "outd", Elem: F64},
		},
		Body: []Stmt{
			Let("x", Load("f", TID())),
			Let("y", Load("d", TID())),
			Let("s", Add(Mul(V("x"), CF(1.5)), Div(V("y"), CD(3)))), // f32×f32, f64 promote
			Let("s", Add(V("s"), Sqrt(Abs(V("x"))))),
			Let("s", Add(V("s"), Rsqrt(Add(Abs(V("y")), CD(0.5))))),
			Let("s", Add(V("s"), Exp(Min(V("x"), CF(2))))),
			Let("s", Add(V("s"), Log(Add(Abs(V("x")), CF(1))))),
			Let("s", Add(V("s"), Mul(Sin(V("x")), Cos(V("y"))))),
			Let("s", Add(V("s"), Floor(Mul(V("x"), CF(2.5))))),
			Let("s", Add(V("s"), Sqrt(Add(TID(), CI(1))))), // i32 intrinsic → F32 class
			Let("s", Add(V("s"), Neg(Mod(V("x"), CF(1.25))))),
			Let("s", Sel(LT(V("x"), V("y")), V("s"), Sub(V("s"), CD(0.25)))),
			Store("outf", TID(), ToF32(V("s"))),
			Store("outd", TID(), Add(ToF64(ToI32(Mul(V("s"), CF(4)))), V("y"))),
		},
	}
}

// ctlFlow exercises nested loops, data-dependent break, if/else, and a loop
// that never runs.
func ctlFlow() *Kernel {
	return &Kernel{
		Name: "diff_ctl",
		Bufs: []BufDecl{{Name: "out", Elem: I32}},
		Body: []Stmt{
			Let("acc", CI(0)),
			For("outer", "i", CI(0), Mod(TID(), CI(9)),
				For("inner", "j", V("i"), CI(6),
					Let("acc", Add(V("acc"), Mul(V("i"), V("j")))),
					If(GT(V("acc"), CI(40)), Break()),
				),
				IfElse(EQ(Mod(V("i"), CI(3)), CI(0)),
					[]Stmt{Let("acc", Add(V("acc"), CI(1)))},
					[]Stmt{Let("acc", Sub(V("acc"), CI(2))), If(LT(V("acc"), CI(-5)), Break())},
				),
			),
			For("never", "q", CI(5), CI(2), Let("acc", CI(999))),
			Store("out", TID(), V("acc")),
		},
	}
}

func atomicKernel() *Kernel {
	return &Kernel{
		Name: "diff_atomic",
		Bufs: []BufDecl{{Name: "hist", Elem: I32}},
		Body: []Stmt{
			AtomicAdd("hist", Mod(TID(), CI(5)), CI(1)),
			AtomicAdd("hist", Mod(Mul(TID(), CI(3)), NT()), Mod(TID(), CI(4))),
		},
	}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, tc := range []struct {
		k   *Kernel
		env *Env
	}{
		{opsI32(), diffEnv(64, map[string]Type{"a": I32, "out": I32})},
		{opsFloat(), diffEnv(48, map[string]Type{"f": F32, "d": F64, "outf": F32, "outd": F64})},
		{ctlFlow(), diffEnv(40, map[string]Type{"out": I32})},
		{atomicKernel(), diffEnv(32, map[string]Type{"hist": I32})},
	} {
		t.Run(tc.k.Name, func(t *testing.T) { diffKernel(t, tc.k, tc.env) })
	}
}

// TestCompiledErrorIdentity checks that runtime failures — out-of-range
// accesses, unbound parameters and buffers — fail at the same thread with
// the same message, and that the partial buffers and statistics accumulated
// up to the failure are bit-identical: serially, and through the
// block-parallel dispatcher on one, two and three workers, each engine
// against the serial interpreter.
func TestCompiledErrorIdentity(t *testing.T) {
	cases := []struct {
		name string
		k    *Kernel
		env  *Env
		want string // substring of the expected error
	}{
		{
			name: "oob_store",
			k: &Kernel{Name: "oob_store", Bufs: []BufDecl{{Name: "out", Elem: I32}},
				Body: []Stmt{
					Store("out", TID(), CI(1)),
					If(EQ(TID(), CI(7)), Store("out", NT(), CI(9))),
				}},
			env:  diffEnv(16, map[string]Type{"out": I32}),
			want: `thread 7: store out[16] out of range (len 16)`,
		},
		{
			name: "oob_load",
			k: &Kernel{Name: "oob_load", Bufs: []BufDecl{{Name: "a", Elem: F32, ReadOnly: true}, {Name: "out", Elem: F32}},
				Body: []Stmt{
					Let("x", Load("a", Sub(TID(), CI(3)))), // negative index for tid < 3... tid 0 fails
					Store("out", TID(), V("x")),
				}},
			env:  diffEnv(8, map[string]Type{"a": F32, "out": F32}),
			want: `thread 0: load a[-3] out of range (len 8)`,
		},
		{
			name: "oob_atomic",
			k: &Kernel{Name: "oob_atomic", Bufs: []BufDecl{{Name: "h", Elem: I32}},
				Body: []Stmt{
					If(GT(TID(), CI(4)), AtomicAdd("h", Mul(TID(), CI(100)), CI(1))),
					AtomicAdd("h", CI(0), CI(1)),
				}},
			env:  diffEnv(8, map[string]Type{"h": I32}),
			want: `thread 5: atomic h[500] out of range (len 8)`,
		},
		{
			name: "unbound_param",
			k: &Kernel{Name: "unbound_param",
				Params: []ParamDecl{{Name: "scale", T: I32}},
				Bufs:   []BufDecl{{Name: "out", Elem: I32}},
				Body: []Stmt{
					Store("out", TID(), CI(2)),
					If(EQ(TID(), CI(3)), Store("out", TID(), P("scale"))),
				}},
			env:  diffEnv(8, map[string]Type{"out": I32}),
			want: `thread 3: unbound parameter "scale"`,
		},
		{
			name: "unbound_buffer",
			k: &Kernel{Name: "unbound_buffer",
				Bufs: []BufDecl{{Name: "ghost", Elem: I32, ReadOnly: true}, {Name: "out", Elem: I32}},
				Body: []Stmt{
					Store("out", TID(), CI(1)),
					If(EQ(TID(), CI(2)), Let("g", Load("ghost", CI(0))), Store("out", TID(), V("g"))),
				}},
			env:  diffEnv(8, map[string]Type{"out": I32}),
			want: `thread 2: unbound buffer "ghost"`,
		},
		{
			// The fault is several trips into a loop: the segment tallies of
			// the completed trips count in full, the faulting trip's only up
			// to the load.
			name: "oob_in_loop_body",
			k: &Kernel{Name: "oob_loop", Bufs: []BufDecl{{Name: "a", Elem: F32, ReadOnly: true}, {Name: "out", Elem: F32}},
				Body: []Stmt{
					Let("acc", CF(0)),
					For("l", "i", CI(0), CI(6),
						Let("acc", Add(Mul(V("acc"), CF(0.5)), Load("a", Add(TID(), Mul(V("i"), CI(2)))))),
						Store("out", TID(), Sqrt(Abs(V("acc")))),
					),
					Store("out", TID(), V("acc")),
				}},
			env:  diffEnv(12, map[string]Type{"a": F32, "out": F32}),
			want: `thread 2: load a[12] out of range (len 12)`,
		},
		{
			// The faulting load is an operand of a comparison that fuses with
			// its branch.
			name: "oob_in_fused_compare_operand",
			k: &Kernel{Name: "oob_cmp", Bufs: []BufDecl{{Name: "a", Elem: I32, ReadOnly: true}, {Name: "out", Elem: I32}},
				Body: []Stmt{
					Store("out", TID(), CI(3)),
					IfElse(LT(Load("a", Mul(TID(), CI(3))), Add(TID(), CI(1))),
						[]Stmt{Store("out", TID(), CI(4))},
						[]Stmt{Store("out", TID(), Neg(TID()))}),
				}},
			env:  diffEnv(10, map[string]Type{"a": I32, "out": I32}),
			want: `thread 4: load a[12] out of range (len 10)`,
		},
		{
			// The fault sits behind a fused compare-and-branch, in a store
			// whose value expression the early bounds check must precede.
			name: "oob_behind_fused_compare",
			k: &Kernel{Name: "oob_guarded", Bufs: []BufDecl{{Name: "a", Elem: F64, ReadOnly: true}, {Name: "out", Elem: F64}},
				Body: []Stmt{
					For("l", "i", CI(0), CI(3),
						If(GE(Add(TID(), V("i")), CI(9)),
							Store("out", Add(TID(), V("i")), Exp(Load("a", TID()))),
						),
						AtomicAdd("out", TID(), Load("a", V("i"))),
					),
				}},
			env:  diffEnv(9, map[string]Type{"a": F64, "out": F64}),
			want: `thread 7: store out[9] out of range (len 9)`,
		},
		{
			// The load is fused with its index arithmetic: the multiply and
			// the add were evaluated, and counted, before the index failed.
			name: "oob_in_fused_indexed_load",
			k: &Kernel{Name: "oob_ldmad", Bufs: []BufDecl{{Name: "a", Elem: F32, ReadOnly: true}, {Name: "out", Elem: F32}},
				Body: []Stmt{
					For("l", "i", CI(0), CI(3),
						Store("out", TID(), Add(Load("a", Add(Mul(TID(), CI(3)), V("i"))), CF(1)))),
				}},
			env:  diffEnv(10, map[string]Type{"a": F32, "out": F32}),
			want: `thread 3: load a[10] out of range (len 10)`,
		},
		{
			// The failing index is launch-invariant: the prologue computed it,
			// but every thread is charged its multiply before the load fails,
			// and nothing of what follows the load — the second hoisted
			// product included.
			name: "oob_in_hoisted_index",
			k: &Kernel{Name: "oob_hoist",
				Params: []ParamDecl{{Name: "m", T: I32}, {Name: "s", T: F32}},
				Bufs:   []BufDecl{{Name: "a", Elem: F32, ReadOnly: true}, {Name: "out", Elem: F32}},
				Body: []Stmt{
					Store("out", TID(), Mul(P("s"), P("s"))),
					If(GE(TID(), CI(2)),
						Store("out", TID(), Add(Load("a", Mul(P("m"), CI(4))), Mul(P("s"), CF(0.5))))),
				}},
			env:  diffEnv(8, map[string]Type{"a": F32, "out": F32}).SetInt("m", 2).SetF32("s", 1.5),
			want: `thread 2: load a[8] out of range (len 8)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.k.Validate(); err != nil {
				t.Fatal(err)
			}
			envI := cloneEnvT(tc.env)
			errI := tc.k.InterpretAll(envI, NewStats())
			if errI == nil || !strings.Contains(errI.Error(), tc.want) {
				t.Fatalf("interpreter error = %v, want substring %q", errI, tc.want)
			}
			diffKernel(t, tc.k, tc.env)
			p, err := Compile(tc.k)
			if err != nil {
				t.Fatal(err)
			}
			// Every worker count leaves what the serial interpreter left. (The
			// atomic kernels run serially whatever the count.)
			for _, workers := range []int{1, 2, 3} {
				diffRuns(t, tc.env,
					func(e *Env, st *Stats) error { return tc.k.InterpretAll(e, st) },
					func(e *Env, st *Stats) error { return tc.k.execBlocks(nil, e, st, 4, workers) })
				diffRuns(t, tc.env,
					func(e *Env, st *Stats) error { return tc.k.InterpretAll(e, st) },
					func(e *Env, st *Stats) error { return tc.k.execBlocks(p, e, st, 4, workers) })
			}
		})
	}
}

// TestCompileFallback checks that kernels with possibly-unassigned variable
// reads refuse to compile and transparently run on the interpreter with
// identical results.
func TestCompileFallback(t *testing.T) {
	k := &Kernel{
		Name: "fallback",
		Bufs: []BufDecl{{Name: "out", Elem: I32}},
		Body: []Stmt{
			If(GT(TID(), CI(2)), Let("x", Mul(TID(), CI(2)))),
			If(GT(TID(), CI(2)), Store("out", TID(), V("x"))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(k); err == nil {
		t.Fatal("Compile succeeded on a possibly-unassigned variable read")
	} else if _, ok := err.(*unsupportedError); !ok {
		t.Fatalf("Compile error = %T, want *unsupportedError", err)
	}
	if k.resolveProgram() != nil {
		t.Fatal("resolveProgram returned a program for an uncompilable kernel")
	}

	env := diffEnv(16, map[string]Type{"out": I32})
	envI, envD := cloneEnvT(env), cloneEnvT(env)
	stI, stD := NewStats(), NewStats()
	if err := k.InterpretAll(envI, stI); err != nil {
		t.Fatal(err)
	}
	if err := k.ExecAll(envD, stD); err != nil { // dispatch → interpreter fallback
		t.Fatal(err)
	}
	buffersIdentical(t, "out", envI.Bufs["out"], envD.Bufs["out"])
	statsIdentical(t, stI, stD)
}

// TestVarBranchDefiniteness: a variable assigned in both branches of an
// if/else is definitely assigned and must still compile.
func TestVarBranchDefiniteness(t *testing.T) {
	k := &Kernel{
		Name: "branch_def",
		Bufs: []BufDecl{{Name: "out", Elem: I32}},
		Body: []Stmt{
			IfElse(GT(TID(), CI(4)),
				[]Stmt{Let("x", CI(1))},
				[]Stmt{Let("x", CI(2))},
			),
			Store("out", TID(), V("x")),
		},
	}
	diffKernel(t, k, diffEnv(12, map[string]Type{"out": I32}))
}

// TestZeroThreadStats: zero-thread launches must produce the same empty-map
// (never nil-map) Stats through every entry point.
func TestZeroThreadStats(t *testing.T) {
	k := opsI32()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	want := NewStats()
	for name, run := range map[string]func(env *Env, st *Stats) error{
		"ExecAll":      func(env *Env, st *Stats) error { return k.ExecAll(env, st) },
		"InterpretAll": func(env *Env, st *Stats) error { return k.InterpretAll(env, st) },
		"ExecBlocks":   func(env *Env, st *Stats) error { return k.ExecBlocks(env, st, 64, 4) },
	} {
		st := &Stats{} // deliberately nil maps
		env := &Env{NThreads: 0}
		if err := run(env, st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Trips == nil || st.Entries == nil || st.BufLd == nil || st.BufSt == nil {
			t.Fatalf("%s: zero-thread launch left nil stats maps: %+v", name, st)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("%s: zero-thread stats = %+v, want %+v", name, st, want)
		}
	}
}

// TestMeanTripsNeverEnteredLoop: a loop that never runs must contribute no
// map keys and report MeanTrips of 0 on both engines.
func TestMeanTripsNeverEnteredLoop(t *testing.T) {
	k := &Kernel{
		Name: "never_loop",
		Bufs: []BufDecl{{Name: "out", Elem: I32}},
		Body: []Stmt{
			Let("acc", CI(0)),
			For("dead", "i", CI(5), CI(2), Let("acc", Add(V("acc"), CI(1)))),
			Store("out", TID(), V("acc")),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	env := diffEnv(8, map[string]Type{"out": I32})
	for name, run := range map[string]func(env *Env, st *Stats) error{
		"interp":   func(env *Env, st *Stats) error { return k.InterpretAll(env, st) },
		"compiled": func(env *Env, st *Stats) error { p, _ := Compile(k); return p.ExecAll(env, st) },
	} {
		st := NewStats()
		if err := run(cloneEnvT(env), st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := st.MeanTrips("dead"); got != 0 {
			t.Errorf("%s: MeanTrips(dead) = %v, want 0", name, got)
		}
		if _, ok := st.Trips["dead"]; ok {
			t.Errorf("%s: Trips has key for never-entered loop", name)
		}
		if _, ok := st.Entries["dead"]; ok {
			t.Errorf("%s: Entries has key for never-entered loop", name)
		}
	}
	diffKernel(t, k, env)
}

// TestMergeIntoZeroValueStats: merging into a zero-value Stats must not
// panic and must normalize the maps.
func TestMergeIntoZeroValueStats(t *testing.T) {
	src := NewStats()
	src.Trips["l"] = 3
	src.Threads = 2
	var dst Stats
	dst.Merge(src)
	if dst.Trips["l"] != 3 || dst.Threads != 2 {
		t.Fatalf("merge into zero-value Stats = %+v", dst)
	}
	if dst.Entries == nil || dst.BufLd == nil || dst.BufSt == nil {
		t.Fatal("merge left nil maps")
	}
}

// TestProgramCacheReuse: repeated resolution returns the same program, and
// kernels differing only in loop labels do not share an entry.
func TestProgramCacheReuse(t *testing.T) {
	k := ctlFlow()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	p1, p2 := k.resolveProgram(), k.resolveProgram()
	if p1 == nil || p1 != p2 {
		t.Fatalf("cache did not memoize: %p vs %p", p1, p2)
	}
	relabeled := ctlFlow()
	relabeled.Body[1].(*ForStmt).Label = "renamed_outer"
	if err := relabeled.Validate(); err != nil {
		t.Fatal(err)
	}
	p3 := relabeled.resolveProgram()
	if p3 == nil || p3 == p1 {
		t.Fatal("kernels differing only in loop labels shared a cached program")
	}
}

// TestCompiledExecAllocs: steady-state compiled execution must not allocate
// — registers and stat slots come from the pooled frame, and the prologue of
// a kernel with launch-invariant expressions runs on it too.
func TestCompiledExecAllocs(t *testing.T) {
	hoisting := &Kernel{
		Name:   "prologue",
		Params: []ParamDecl{{Name: "n", T: I32}, {Name: "s", T: F32}},
		Bufs:   []BufDecl{{Name: "a", Elem: I32, ReadOnly: true}, {Name: "out", Elem: I32}},
		Body: []Stmt{
			For("l", "j", CI(0), Div(Add(P("n"), Sub(NT(), CI(1))), NT()),
				Store("out", TID(), Mul(Load("a", TID()), ToI32(Mul(P("s"), P("s")))))),
		},
	}
	for _, k := range []*Kernel{opsI32(), hoisting} {
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
		p, err := Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		if (p.pro != nil) != (k == hoisting) {
			t.Fatalf("%s: prologue of %d instructions", k.Name, len(p.pro))
		}
		env := diffEnv(64, map[string]Type{"a": I32, "out": I32}).SetInt("n", 100).SetF32("s", 1.5)
		st := NewStats()
		if err := p.ExecAll(env, st); err != nil { // warm the pool and the map keys
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := p.ExecAll(env, st); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: compiled ExecAll allocates %.1f objects/launch, want ≤ 2", k.Name, allocs)
		}
	}
}

// TestShadowPoolReuse: the per-worker shadow buffers of ExecBlocks must be
// recycled across launches instead of re-cloned.
func TestShadowPoolReuse(t *testing.T) {
	src := NewBuffer(F32, 1<<12)
	for i := 0; i < src.Len(); i++ {
		src.Set(i, F32Val(float64(i)))
	}
	s := shadowOf(src)
	releaseShadow(s)
	allocs := testing.AllocsPerRun(100, func() {
		sh := shadowOf(src)
		if sh.Len() != src.Len() {
			t.Fatal("bad shadow length")
		}
		releaseShadow(sh)
	})
	if allocs > 0.5 {
		t.Errorf("shadowOf allocates %.1f objects/launch after warmup, want 0", allocs)
	}
}

// TestExecBlocksAllocsBounded: a repeated parallel launch must not re-clone
// writable buffers; per-launch allocations stay small and independent of
// buffer size.
func TestExecBlocksAllocsBounded(t *testing.T) {
	k := opsI32()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	env := diffEnv(1<<12, map[string]Type{"a": I32, "out": I32})
	run := func() {
		if err := k.ExecBlocks(env, nil, 256, 4); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pools
	allocs := testing.AllocsPerRun(50, run)
	// Worker envs, maps, spans and goroutines still allocate; the shadow
	// clones (3 allocations per worker per writable buffer) must not.
	if allocs > 40 {
		t.Errorf("ExecBlocks allocates %.1f objects/launch, want ≤ 40", allocs)
	}
}
