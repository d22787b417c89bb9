package kpl

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestCompileRefusals: one kernel per reason the typed compiler refuses.
// Each must fail Compile with an *unsupportedError naming the reason, and
// still run — on the interpreter — through the ordinary entry points.
func TestCompileRefusals(t *testing.T) {
	out := []BufDecl{{Name: "out", Elem: F64}, {Name: "d", Elem: F64, ReadOnly: true}}
	cases := []struct {
		name string
		k    *Kernel
		want string
	}{
		{"if_merge_two_arms", &Kernel{Name: "r1", Bufs: out, Body: []Stmt{
			IfElse(GT(TID(), CI(3)), []Stmt{Let("x", CI(1))}, []Stmt{Let("x", CF(1))}),
			Store("out", TID(), V("x")),
		}}, `variable "x" is i32 or f32 after an if`},
		{"if_merge_one_arm", &Kernel{Name: "r2", Bufs: out, Body: []Stmt{
			Let("x", CI(1)),
			If(GT(TID(), CI(3)), Let("x", CD(2))),
			Store("out", TID(), V("x")),
		}}, `variable "x" is f64 or i32 after an if`},
		{"loop_back_edge", &Kernel{Name: "r3", Bufs: out, Body: []Stmt{
			Let("acc", CF(0)),
			For("l", "i", CI(0), CI(4), Let("acc", Add(V("acc"), Load("d", V("i"))))),
			Store("out", TID(), V("acc")),
		}}, `variable "acc" is f32 or f64 at the end of a loop body`},
		{"loop_variable_retyped", &Kernel{Name: "r4", Bufs: out, Body: []Stmt{
			Let("i", CF(7)),
			For("l", "i", CI(0), CI(4), Store("out", V("i"), CD(1))),
			Store("out", TID(), V("i")),
		}}, `variable "i" is f32 or i32 at the end of a loop body`},
		{"break", &Kernel{Name: "r5", Bufs: out, Body: []Stmt{
			Let("v", CI(0)),
			For("l", "i", CI(0), CI(4),
				Let("v", CF(1)),
				If(GT(V("i"), CI(1)), Break()),
				Let("v", CI(2)),
			),
			Store("out", TID(), V("v")),
		}}, `variable "v" is i32 or f32 at a break`},
		{"sel_arms", &Kernel{Name: "r6", Bufs: out, Body: []Stmt{
			Store("out", TID(), Sel(GT(TID(), CI(3)), CI(1), CD(2))),
		}}, `select arms have types i32 and f64`},
		{"read_before_assignment", &Kernel{Name: "r7", Bufs: out, Body: []Stmt{
			If(GT(TID(), CI(3)), Let("x", CI(1))),
			Store("out", TID(), V("x")),
		}}, `variable "x" may be read before assignment`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.k.Validate(); err != nil {
				t.Fatal(err)
			}
			_, err := Compile(tc.k)
			if _, ok := err.(*unsupportedError); !ok || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile = %v, want an unsupportedError containing %q", err, tc.want)
			}
			if tc.k.resolveProgram() != nil {
				t.Fatal("resolveProgram returned a program for a refused kernel")
			}
			env := diffEnv(8, map[string]Type{"out": F64, "d": F64})
			envI, envD := cloneEnvT(env), cloneEnvT(env)
			stI, stD := NewStats(), NewStats()
			errI := tc.k.InterpretAll(envI, stI)
			errD := tc.k.ExecBlocks(envD, stD, 4, 1)
			if (errI == nil) != (errD == nil) || errI != nil && errI.Error() != errD.Error() {
				t.Fatalf("error: interpreter %v, dispatch %v", errI, errD)
			}
			buffersIdentical(t, "out", envI.Bufs["out"], envD.Bufs["out"])
			statsIdentical(t, stI, stD)
		})
	}

	// Unvalidated kernels: names and types outside the declarations.
	for name, k := range map[string]*Kernel{
		"undeclared parameter": {Name: "u1", Bufs: out, Body: []Stmt{Store("out", TID(), P("ghost"))}},
		"undeclared buffer":    {Name: "u2", Bufs: out, Body: []Stmt{Store("out", TID(), Load("ghost", TID()))}},
		"unknown type":         {Name: "u3", Bufs: out, Body: []Stmt{Store("out", TID(), Cast(Type(9), TID()))}},
		"unknown binary":       {Name: "u4", Bufs: out, Body: []Stmt{Store("out", TID(), Bin(BinOp(40), TID(), TID()))}},
		"unknown unary":        {Name: "u5", Bufs: out, Body: []Stmt{Store("out", TID(), &UnExpr{Op: UnOp(40), A: TID()})}},
	} {
		if _, err := Compile(k); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Compile = %v", name, err)
		}
	}
}

// TestLaunchBindingFallback: a kernel that compiles, launched with bindings
// that contradict its declarations — a parameter Value or a Buffer of another
// type, an unbound name — runs on the interpreter for that launch only, so
// results and error text are the interpreter's.
func TestLaunchBindingFallback(t *testing.T) {
	k := &Kernel{
		Name:   "bindings",
		Params: []ParamDecl{{Name: "s", T: I32}},
		Bufs:   []BufDecl{{Name: "in", Elem: F32, ReadOnly: true}, {Name: "out", Elem: F32}},
		Body: []Stmt{
			Let("acc", CF(0)),
			For("l", "i", CI(0), CI(3), Let("acc", Add(V("acc"), Mul(Load("in", TID()), P("s"))))),
			If(LT(TID(), CI(6)), Store("out", TID(), Div(V("acc"), P("s")))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	good := func() *Env { return diffEnv(8, map[string]Type{"in": F32, "out": F32}).SetInt("s", 3) }
	cases := []struct {
		name    string
		env     *Env
		binds   bool
		wantErr string
	}{
		{"as_declared", good(), true, ""},
		{"param_f64", good().SetF64("s", 2.5), false, ""},
		{"param_f32", good().SetF32("s", 0), false, ""},
		{"buffer_f64", good().Bind("in", diffEnv(8, map[string]Type{"in": F64}).Bufs["in"]), false, ""},
		{"buffer_i32_short", good().Bind("out", NewBuffer(I32, 4)), false, `thread 4: store out[4] out of range (len 4)`},
		{"param_unbound", &Env{NThreads: 8, Params: map[string]Value{}, Bufs: good().Bufs}, false, `thread 0: unbound parameter "s"`},
		{"buffer_unbound", good().Bind("in", nil), false, `thread 0: unbound buffer "in"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := p.bind(tc.env)
			if (fr != nil) != tc.binds {
				t.Fatalf("bind succeeded = %v, want %v", fr != nil, tc.binds)
			}
			if fr != nil {
				putFrame(fr)
			}
			envI, envC := cloneEnvT(tc.env), cloneEnvT(tc.env)
			stI, stC := NewStats(), NewStats()
			errI := k.InterpretAll(envI, stI)
			errC := k.ExecBlocks(envC, stC, 4, 1)
			if errI == nil != (tc.wantErr == "") || errI != nil && !strings.Contains(errI.Error(), tc.wantErr) {
				t.Fatalf("interpreter error = %v, want %q", errI, tc.wantErr)
			}
			if (errI == nil) != (errC == nil) || errI != nil && errI.Error() != errC.Error() {
				t.Fatalf("error: interpreter %v, engine %v", errI, errC)
			}
			buffersIdentical(t, "out", envI.Bufs["out"], envC.Bufs["out"])
			statsIdentical(t, stI, stC)
		})
	}
}

// runHand runs one thread of a hand-assembled program with registers 2, 3
// and 4 preset, and returns the frame for inspection (the caller releases it).
func runHand(t *testing.T, nEdges int, r2, r3, r4 uint64, code ...instr) *frame {
	t.Helper()
	p := &Program{nEdges: nEdges}
	for _, ins := range code {
		p.code = append(p.code, ins.word())
	}
	fr := p.bind(&Env{NThreads: 1})
	fr.regs[2], fr.regs[3], fr.regs[4] = r2, r3, r4
	fr.tid, fr.hi, fr.step = 0, 1, 1
	if pc, _ := exec(p.code, fr); pc >= 0 {
		t.Fatalf("hand-assembled program faulted at pc %d", pc)
	}
	return fr
}

// runOp executes one typed instruction on operand words a, b (and c, for the
// instructions that take a fourth register) and returns the destination word.
func runOp(t *testing.T, op opcode, a, b, c uint64) uint64 {
	t.Helper()
	fr := runHand(t, 1, a, b, c, instr{op: op, dst: 5, a: 2, b: 3, c: 4}, instr{op: opHalt})
	defer putFrame(fr)
	return fr.regs[5]
}

// bitsOf is the register contents holding v.
func bitsOf(v Value) uint64 {
	if v.T == I32 {
		return uint64(v.I)
	}
	return math.Float64bits(v.F)
}

// edgeOperands are the operand values every typed opcode is checked on:
// NaNs, ±Inf, −0, the int32 limits (and values a Convert(I32) of an
// out-of-range float leaves behind, which exceed them), zero divisors,
// shift counts ≥ 32 and ≥ 64, f32 values that are not exactly representable
// products, and f32-tagged values that are not f32-representable at all.
func edgeOperands(t Type) []Value {
	if t == I32 {
		var out []Value
		for _, i := range []int64{0, 1, -1, 2, 7, -7, 31, 32, 33, 63, 64, 65, 255,
			math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1,
			1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
			out = append(out, Value{T: I32, I: i})
		}
		return out
	}
	var out []Value
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 3.75, 1e-3, 0.1,
		16777217, 1e10, -1e10, 3e9, -3e9, 1e19, -1e19, 1e300, -1e300, 1e-310,
		math.MaxFloat32, math.SmallestNonzeroFloat32, math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		// Two NaNs that differ in payload and sign: the result of adding or
		// multiplying them must not depend on how the compiler ordered the
		// operands (see nanAdd).
		math.NaN(), math.Float64frombits(0xFFF8000000000000)} {
		out = append(out, Value{T: t, F: f})
		if t == F32 {
			out = append(out, F32Val(f))
		}
	}
	return out
}

// TestTypedOpcodesMatchEval: every typed opcode is binEval, unEval or
// Value.Convert specialised to one type. Checked opcode by opcode, bit for
// bit, over the edge operands.
func TestTypedOpcodesMatchEval(t *testing.T) {
	types := []Type{I32, F32, F64}
	for op := OpAdd; op <= OpShr; op++ {
		for _, ty := range types {
			if op.IsBitwise() && ty != I32 {
				continue // float operands reach bitwise opcodes through opCvtFI
			}
			code := binOpcode(op, ty)
			for _, a := range edgeOperands(ty) {
				for _, b := range edgeOperands(ty) {
					want := binEval(op, a, b)
					got := runOp(t, code, bitsOf(a), bitsOf(b), 0)
					if got != bitsOf(want) {
						t.Errorf("%v %v (%v, %v): opcode %d gives %#x, binEval %v (%#x)", op, ty, a, b, code, got, want, bitsOf(want))
					}
					if !op.IsCompare() {
						continue
					}
					// The fused compare-and-branch falls through exactly when
					// the comparison holds.
					jn := opJnLTI + (code - opLTI)
					fr := runHand(t, 3, bitsOf(a), bitsOf(b), 0,
						instr{op: jn, dst: 1, a: 2, b: 3, c: 2}, instr{op: opHalt}, instr{op: opHalt})
					if fell := fr.cnt[2] == 1; fell != (want.I == 1) || fr.cnt[1]+fr.cnt[2] != 1 {
						t.Errorf("fused %v %v (%v, %v): fell through = %v, binEval %v", op, ty, a, b, fell, want)
					}
					putFrame(fr)
				}
			}
		}
	}

	// The fused integer multiply-add is the composition of the two.
	for _, a := range edgeOperands(I32) {
		for _, b := range edgeOperands(I32) {
			for _, c := range edgeOperands(I32) {
				want := binEval(OpAdd, binEval(OpMul, a, b), c)
				if got := runOp(t, opMadI, bitsOf(a), bitsOf(b), bitsOf(c)); got != bitsOf(want) {
					t.Errorf("mad (%v, %v, %v): opcode gives %#x, binEval %v", a, b, c, got, want)
				}
			}
		}
	}

	for op := OpNeg; op <= OpCos; op++ {
		for _, ty := range types {
			if ty == I32 && op != OpNeg && op != OpAbs && op != OpNot {
				continue // intrinsics on ints go through opCvtIF32 first
			}
			if op == OpNot && ty != I32 {
				continue // through opCvtFI first
			}
			code := unOpcode(op, ty)
			for _, a := range edgeOperands(ty) {
				want := unEval(op, a)
				if got := runOp(t, code, bitsOf(a), 0, 0); got != bitsOf(want) {
					t.Errorf("%v %v (%v): opcode %d gives %#x, unEval %v (%#x)", op, ty, a, code, got, want, bitsOf(want))
				}
			}
		}
	}

	// Conversions: the implicit ones (Value.Int, Value.Float, the intrinsic's
	// Convert(F32)) and Value.Convert for every pair of types.
	for _, a := range edgeOperands(I32) {
		for code, want := range map[opcode]uint64{
			opCvtIF:   math.Float64bits(a.Float()),
			opCvtIF32: bitsOf(a.Convert(F32)),
		} {
			if got := runOp(t, code, bitsOf(a), 0, 0); got != want || convertWord(code, bitsOf(a)) != want {
				t.Errorf("conversion %d of %v: exec %#x, folded %#x, want %#x", code, a, got, convertWord(code, bitsOf(a)), want)
			}
		}
		if want := bitsOf(a.Convert(F64)); runOp(t, opCvtIF, bitsOf(a), 0, 0) != want {
			t.Errorf("Convert(F64) of %v", a)
		}
	}
	for _, ty := range []Type{F32, F64} {
		for _, a := range edgeOperands(ty) {
			for code, want := range map[opcode]uint64{
				opCvtFI:    uint64(a.Int()),
				opRoundF32: bitsOf(a.Convert(F32)),
			} {
				if ty == F32 && code == opRoundF32 {
					continue // Convert(F32) of an f32 is the identity, lowered as a move
				}
				if got := runOp(t, code, bitsOf(a), 0, 0); got != want || convertWord(code, bitsOf(a)) != want {
					t.Errorf("conversion %d of %v: exec %#x, folded %#x, want %#x", code, a, got, convertWord(code, bitsOf(a)), want)
				}
			}
			if bitsOf(a.Convert(I32)) != uint64(a.Int()) || bitsOf(a.Convert(F64)) != bitsOf(a) {
				t.Errorf("Convert of %v is not what the compiler lowers it to", a)
			}
		}
	}

	// Select and conditional jump: Value.Bool of the condition.
	for _, ty := range types {
		sel, jz := opSelI, opJzI
		if ty != I32 {
			sel, jz = opSelF, opJzF
		}
		for _, c := range edgeOperands(ty) {
			want := uint64(22)
			if c.Bool() {
				want = 11
			}
			fr := runHand(t, 3, bitsOf(c), 11, 22,
				instr{op: sel, dst: 5, a: 2, b: 3, c: 4}, instr{op: jz, dst: 1, a: 2, c: 3}, instr{op: opHalt}, instr{op: opHalt})
			if fr.regs[5] != want || (fr.cnt[2] == 1) != c.Bool() {
				t.Errorf("condition %v: select gave %d, branch fell through = %v; Bool() = %v", c, fr.regs[5], fr.cnt[2] == 1, c.Bool())
			}
			putFrame(fr)
		}
	}
}

// TestTypedMemoryOpsMatchBuffer: typed loads, stores and atomics against
// Buffer.At/Set/AddAt, for every element type and both register kinds.
func TestTypedMemoryOpsMatchBuffer(t *testing.T) {
	for _, elem := range []Type{I32, F32, F64} {
		for _, vt := range []Type{I32, F32, F64} {
			for _, v := range edgeOperands(vt) {
				k := &Kernel{
					Name:   "mem",
					Params: []ParamDecl{{Name: "v", T: vt}},
					Bufs:   []BufDecl{{Name: "b", Elem: elem}, {Name: "o", Elem: elem}},
					Body: []Stmt{
						Store("b", CI(0), P("v")),
						AtomicAdd("b", CI(1), P("v")),
						AtomicAdd("b", CI(1), P("v")),
						Store("o", CI(0), Load("b", CI(0))),
						Store("o", CI(1), Load("b", CI(1))),
					},
				}
				env := NewEnv(1).Bind("b", NewBuffer(elem, 2)).Bind("o", NewBuffer(elem, 2))
				env.Params["v"] = v
				diffKernel(t, k, env)
			}
		}
	}
}

// TestFrameLinePadding: the words a worker's thread loop writes — registers,
// edge counters, the thread-loop state — sit at least one cache line inside
// the frame's allocation at either end, so two workers' frames never share a
// 64-byte line however the allocator places them.
func TestFrameLinePadding(t *testing.T) {
	var fr frame
	const line = 64
	if off := unsafe.Offsetof(fr.regs); off < line {
		t.Errorf("registers start %d bytes into the frame, want ≥ %d", off, line)
	}
	hotEnd := unsafe.Offsetof(fr.done) + unsafe.Sizeof(fr.done)
	if unsafe.Offsetof(fr.cnt) > hotEnd || unsafe.Offsetof(fr.tid) > hotEnd {
		t.Fatal("frame layout changed: update the hot-region bounds of this test")
	}
	if tail := unsafe.Sizeof(fr) - hotEnd; tail < line {
		t.Errorf("hot region ends %d bytes before the frame does, want ≥ %d", tail, line)
	}

	// And on live frames: the lines of two simultaneously bound frames' hot
	// regions are disjoint.
	p, err := Compile(ctlFlow())
	if err != nil {
		t.Fatal(err)
	}
	env := diffEnv(4, map[string]Type{"out": I32})
	a, b := p.bind(env), p.bind(env)
	defer putFrame(a)
	defer putFrame(b)
	lines := func(fr *frame) (lo, hi uintptr) {
		base := uintptr(unsafe.Pointer(fr))
		return (base + unsafe.Offsetof(fr.regs)) / line, (base + hotEnd - 1) / line
	}
	alo, ahi := lines(a)
	blo, bhi := lines(b)
	if alo <= bhi && blo <= ahi {
		t.Errorf("frames share a cache line: lines [%d,%d] and [%d,%d]", alo, ahi, blo, bhi)
	}
}
