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
		{"f32_constant_unrepresentable", &Kernel{Name: "r8", Bufs: out, Body: []Stmt{
			Store("out", TID(), Mul(&Const{T: F32, F: 0.1}, CF(10))),
		}}, `f32 constant 0.1 is not float32-representable`},
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

// bitsOf is the register contents holding v: an i32 as int64, an f64 as
// float64 bits, an f32 — which must be representable — as float32 bits.
func bitsOf(v Value) uint64 {
	switch v.T {
	case I32:
		return uint64(v.I)
	case F32:
		return uint64(math.Float32bits(float32(v.F)))
	}
	return math.Float64bits(v.F)
}

// representable reports whether a register can hold v: every value but an
// f32-tagged one that float32 does not hold exactly (a signalling NaN
// included: narrowing quiets it).
func representable(v Value) bool {
	_, ok := f32Word(v.F)
	return v.T != F32 || ok
}

// edgeOperands are the operand values every typed opcode is checked on:
// NaNs, ±Inf, −0, the int32 limits (and values a Convert(I32) of an
// out-of-range float leaves behind, which exceed them), zero divisors,
// shift counts ≥ 32 and ≥ 64, f32 values that are not exactly representable
// products, and f32-tagged values that are not f32-representable at all —
// which the opcode table skips (registerOperands) and the kernel-level tests
// feed as constants and parameters, where they must be refused.
func edgeOperands(t Type) []Value {
	if t == I32 {
		var out []Value
		for _, i := range []int64{0, 1, -1, 2, 7, -7, 31, 32, 33, 63, 64, 65, 255,
			1<<24 + 1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1,
			1 << 40, -(1 << 40), 1<<53 + 1<<29 + 1, math.MaxInt64, math.MinInt64} {
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
		// operands (see nanAdd). The third is signalling.
		math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF4000000000000)} {
		out = append(out, Value{T: t, F: f})
		if t == F32 {
			out = append(out, F32Val(f))
		}
	}
	return out
}

// registerOperands are the edge operands a register of type t can hold.
func registerOperands(t Type) []Value {
	var out []Value
	for _, v := range edgeOperands(t) {
		if representable(v) {
			out = append(out, v)
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
				continue // float operands reach bitwise opcodes through a convert
			}
			code := binOpcode(op, ty)
			for _, a := range registerOperands(ty) {
				for _, b := range registerOperands(ty) {
					want := binEval(op, a, b)
					got := runOp(t, code, bitsOf(a), bitsOf(b), 0)
					if got != bitsOf(want) {
						t.Errorf("%v %v (%v, %v): %s gives %#x, binEval %v (%#x)", op, ty, a, b, opcodeNames[code], got, want, bitsOf(want))
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
						t.Errorf("%s (%v, %v): fell through = %v, binEval %v", opcodeNames[jn], a, b, fell, want)
					}
					putFrame(fr)
				}
			}
		}
	}

	// A fused multiply-add is the composition of the two it replaces, in
	// their operand order: the integer one, and every float form madOpcode
	// has, over every triple, NaN pairs included.
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
	for _, ty := range []Type{F32, F64} {
		ops := registerOperands(ty)
		for _, a := range ops {
			for _, b := range ops {
				m := binEval(OpMul, a, b)
				for _, c := range ops {
					for form, want := range []Value{
						binEval(OpAdd, m, c), binEval(OpAdd, c, m), binEval(OpSub, m, c), binEval(OpSub, c, m),
					} {
						code := madOpcode[ty][form]
						if code == 0 {
							continue
						}
						if got := runOp(t, code, bitsOf(a), bitsOf(b), bitsOf(c)); got != bitsOf(want) {
							t.Errorf("%s (%v, %v, %v): opcode gives %#x, binEval %v (%#x)", opcodeNames[code], a, b, c, got, want, bitsOf(want))
						}
					}
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
				continue // through a convert first
			}
			code := unOpcode(op, ty)
			for _, a := range registerOperands(ty) {
				want := unEval(op, a)
				if got := runOp(t, code, bitsOf(a), 0, 0); got != bitsOf(want) {
					t.Errorf("%v %v (%v): %s gives %#x, unEval %v (%#x)", op, ty, a, opcodeNames[code], got, want, bitsOf(want))
				}
			}
		}
	}

	// Conversions: Value.Convert for every ordered pair of types, which is
	// also what the uncounted ones are — Value.Int is Convert(I32), Value.Float
	// of an i32 Convert(F64), Buffer.Set's narrowing Convert(Elem) — executed
	// and folded.
	for _, from := range types {
		for _, a := range registerOperands(from) {
			if a.Int() != a.Convert(I32).I || math.Float64bits(a.Float()) != math.Float64bits(a.Convert(F64).F) {
				t.Fatalf("%v: Value.Int / Value.Float are not Convert", a)
			}
			for _, to := range types {
				code, want := cvtOpcode[from][to], bitsOf(a.Convert(to))
				if got := runOp(t, code, bitsOf(a), 0, 0); got != want || convertWord(code, bitsOf(a)) != want {
					t.Errorf("%s of %v: exec %#x, folded %#x, want %#x", opcodeNames[code], a, got, convertWord(code, bitsOf(a)), want)
				}
			}
		}
	}

	// Select and conditional jump: Value.Bool of the condition.
	for _, ty := range types {
		sel, jz := opSelI+opcode(ty), opJzI+opcode(ty)
		for _, c := range registerOperands(ty) {
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

	// The indexed loads compute opMadI's index, and quiet what they load.
	for _, a := range edgeOperands(I32) {
		for _, b := range edgeOperands(I32) {
			for _, c := range edgeOperands(I32) {
				want := int(binEval(OpAdd, binEval(OpMul, a, b), c).I)
				for elem, buf := range map[Type]boundBuf{
					F32: {f32: []float32{7, 8, math.Float32frombits(0x7FA00001)}, n: 3},
					F64: {f64: []float64{7, 8, math.Float64frombits(0x7FF4000000000001)}, n: 3},
				} {
					p := &Program{nEdges: 1, code: pack([]instr{{op: ldMadOpcode[elem], dst: 5, a: 2, b: 3, c: 4}, {op: opHalt}})}
					fr := p.bind(&Env{NThreads: 1})
					fr.bufs = append(fr.bufs[:0], buf)
					fr.regs[2], fr.regs[3], fr.regs[4] = bitsOf(a), bitsOf(b), bitsOf(c)
					fr.tid, fr.hi, fr.step = 0, 1, 1
					pc, idx := exec(p.code, fr)
					if uint(want) < 3 {
						b := &Buffer{Elem: elem, F32s: buf.f32, F64s: buf.f64}
						if pc != -1 || fr.regs[5] != bitsOf(b.At(want)) {
							t.Errorf("%s (%v, %v, %v): pc %d, loaded %#x, want element %d", opcodeNames[ldMadOpcode[elem]], a, b, c, pc, fr.regs[5], want)
						}
					} else if pc != 0 || idx != want {
						t.Errorf("%s (%v, %v, %v): fault (%d, %d), want index %d", opcodeNames[ldMadOpcode[elem]], a, b, c, pc, idx, want)
					}
					putFrame(fr)
				}
			}
		}
	}
}

// TestTypedMemoryOpsMatchBuffer: typed loads, stores and atomics against
// Buffer.At/Set/AddAt, for every element type and register type, the elements
// preset to a signalling NaN (which a load must quiet as widening does). A
// parameter no register can hold makes that launch fall back.
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
				b := NewBuffer(elem, 3)
				switch elem {
				case F32:
					b.F32s[2] = math.Float32frombits(0x7FA00001)
				case F64:
					b.F64s[2] = math.Float64frombits(0x7FF4000000000001)
				}
				k.Body = append(k.Body, Store("o", CI(2), Load("b", CI(2))), AtomicAdd("b", CI(2), P("v")))
				env := NewEnv(1).Bind("b", b).Bind("o", NewBuffer(elem, 3))
				env.Params["v"] = v
				diffKernel(t, k, env)
				p, err := Compile(k)
				if err != nil {
					t.Fatal(err)
				}
				fr := p.bind(env)
				if (fr != nil) != representable(v) {
					t.Errorf("parameter %v: bind succeeded = %v, representable = %v", v, fr != nil, representable(v))
				}
				if fr != nil {
					putFrame(fr)
				}
			}
		}
	}
}

// TestF32RegisterHazards: the places where holding an f32 as float32 could
// show — a signalling NaN in a buffer, an integer above 2^24 meeting an f32
// (in arithmetic, in a comparison, under an intrinsic), a parameter float32
// does not hold — in thread code and, the same expressions on launch
// constants alone, in the prologue.
func TestF32RegisterHazards(t *testing.T) {
	k := &Kernel{
		Name:   "hazards",
		Params: []ParamDecl{{Name: "p", T: F32}, {Name: "big", T: I32}},
		Bufs: []BufDecl{
			{Name: "in", Elem: F32, ReadOnly: true},
			{Name: "out", Elem: F32}, {Name: "flag", Elem: I32},
		},
		Body: []Stmt{
			Let("b", Add(P("big"), TID())),
			Store("out", CI(0), Load("in", CI(0))),
			Store("out", CI(1), Add(V("b"), CF(1))),
			Store("out", CI(2), Add(P("big"), CF(1))),
			Store("out", CI(3), Mul(Load("in", CI(1)), P("p"))),
			Store("out", CI(4), Sqrt(V("b"))),
			Store("out", CI(5), Sqrt(P("big"))),
			Store("out", CI(6), Sub(Mul(P("p"), CI(3)), V("b"))),
			Store("flag", CI(0), LT(Load("in", CI(2)), V("b"))),
			Store("flag", CI(1), LT(CF(16777216), P("big"))),
			If(LT(Load("in", CI(2)), V("b")), Store("flag", CI(2), V("b"))),
			AtomicAdd("out", CI(7), V("b")),
			AtomicAdd("flag", CI(3), Mul(P("p"), CF(40))),
		},
	}
	in := NewBuffer(F32, 3)
	in.F32s[0], in.F32s[1], in.F32s[2] = math.Float32frombits(0x7F800001), 3, 16777216
	for _, p := range []Value{F32Val(0.1), {T: F32, F: 0.1}, {T: F32, F: math.Float64frombits(0x7FF4000000000000)}} {
		env := NewEnv(2).Bind("in", in).Bind("out", NewBuffer(F32, 8)).Bind("flag", NewBuffer(I32, 4)).SetInt("big", 16777217)
		env.Params["p"] = p
		diffKernel(t, k, env)
	}
}

// TestWidenIsTheConversion: widen's integer path gives float64(float32) bit
// for bit — over the edge operands, both ends of every exponent, and a stride
// through all of float32.
func TestWidenIsTheConversion(t *testing.T) {
	check := func(b uint32) {
		if got, want := math.Float64bits(widen(uint64(b))), math.Float64bits(float64(math.Float32frombits(b))); got != want {
			t.Fatalf("widen(%#08x) = %#016x, the conversion gives %#016x", b, got, want)
		}
	}
	for _, v := range registerOperands(F32) {
		check(uint32(bitsOf(v)))
	}
	for e := uint32(0); e < 256; e++ {
		for _, m := range []uint32{0, 1, 1<<22 - 1, 1 << 22, 1<<23 - 1} {
			check(e<<23 | m)
			check(1<<31 | e<<23 | m)
		}
	}
	for b := uint32(0); b < 1<<32-4099; b += 4099 {
		check(b)
	}
}

func TestOpcodeNames(t *testing.T) {
	seen := map[string]opcode{}
	for op, name := range opcodeNames {
		if prev, dup := seen[name]; name == "" || dup {
			t.Errorf("opcode %d is named %q, as is opcode %d", op, name, prev)
		}
		seen[name] = opcode(op)
	}
	if opcodeNames[opForNext] != "for.next" || opcodeNames[opLdMadF64] != "ldmad.f64" || opcodeNames[opRmadF64] != "rmad.f64" {
		t.Error("opcodeNames has drifted from the opcode list")
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
