package kpl

import (
	"math"
	"strings"
	"testing"
)

// TestDSLHelpersEvaluate drives every builder helper through the
// interpreter, checking semantics and class accounting in one sweep.
func TestDSLHelpersEvaluate(t *testing.T) {
	k := &Kernel{
		Name:   "dslsweep",
		Params: []ParamDecl{{Name: "pf", T: F64}},
		Bufs: []BufDecl{
			{Name: "out", Elem: F64, Access: AccessSeq},
			{Name: "flags", Elem: I32, Access: AccessSeq},
		},
		Body: []Stmt{
			Let("a", Max(CF(2), CF(3))),                   // 3
			Let("b", Min(CI(7), CI(4))),                   // 4
			Let("c", Abs(Neg(CF(1.5)))),                   // 1.5
			Let("d", Floor(CF(2.9))),                      // 2
			Let("e", Rsqrt(CF(4))),                        // 0.5
			Let("f", Log(Exp(CD(1)))),                     // 1
			Let("g", Cos(CD(0))),                          // 1
			Let("h", ToF64(ToI32(CF(6.7)))),               // 6
			Let("i", Sel(NE(CI(1), CI(2)), CI(1), CI(0))), // 1
			Let("j", Sel(LE(CI(2), CI(2)), CI(1), CI(0))), // 1
			Let("k", Bin(OpAnd, Not(CI(0)), CI(1))),       // ~0 & 1 = 1
			Let("sum", Add(Add(ToF64(V("a")), ToF64(V("b"))), Add(ToF64(V("c")), V("f")))),
			IfProb(1.0, GE(V("sum"), CD(0)),
				Store("out", TID(), Add(V("sum"), Mul(V("g"), P("pf")))),
			),
			Store("flags", TID(), Add(Add(V("i"), V("j")), V("k"))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	out := NewBuffer(F64, 2)
	flags := NewBuffer(I32, 2)
	st := NewStats()
	env := NewEnv(2).SetF64("pf", 10).Bind("out", out).Bind("flags", flags)
	if err := k.ExecAll(env, st); err != nil {
		t.Fatal(err)
	}
	// sum = 3 + 4 + 1.5 + 1 = 9.5; out = 9.5 + 1·10 = 19.5.
	if math.Abs(out.F64s[0]-19.5) > 1e-9 {
		t.Errorf("out = %v, want 19.5", out.F64s[0])
	}
	if flags.I32s[1] != 3 {
		t.Errorf("flags = %d, want 3", flags.I32s[1])
	}
	// Error type formatting.
	e := &Error{Kernel: "k", TID: 3, Msg: "boom"}
	if !strings.Contains(e.Error(), "thread 3") {
		t.Errorf("Error() = %q", e.Error())
	}
	// Env setters used above; check SetF32 too.
	env2 := NewEnv(1).SetF32("x", 1.5)
	if env2.Params["x"].T != F32 {
		t.Error("SetF32 type wrong")
	}
}

// TestSignatureCoversAllNodes: kernels exercising every statement and
// expression kind hash deterministically and distinctly.
func TestSignatureCoversAllNodes(t *testing.T) {
	full := &Kernel{
		Name:   "sigfull",
		Params: []ParamDecl{{Name: "p", T: F32}},
		Bufs:   []BufDecl{{Name: "buf", Elem: F32, Access: AccessSeq}},
		Body: []Stmt{
			Let("x", Sel(NE(TID(), NT()), Cast(F32, CI(1)), P("p"))),
			AtomicAdd("buf", CI(0), Sqrt(Abs(V("x")))),
			For("l", "i", CI(0), CI(2),
				IfElse(LT(V("i"), CI(1)),
					[]Stmt{Store("buf", V("i"), Not(CI(0)))},
					[]Stmt{Break()},
				),
			),
		},
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	s1 := full.Signature()
	s2 := full.Signature()
	if s1 != s2 {
		t.Fatal("signature not deterministic")
	}
	// Any structural change moves the hash.
	alt := *full
	alt.Body = full.Body[:2]
	if alt.Signature() == s1 {
		t.Fatal("truncated kernel has same signature")
	}
}

// TestUnEvalIntPaths: integer unary semantics (neg/abs on I32, intrinsic
// promotion to f32).
func TestUnEvalIntPaths(t *testing.T) {
	if v := EvalUn(OpNeg, IntVal(-7)); v.I != 7 {
		t.Errorf("neg = %v", v)
	}
	if v := EvalUn(OpAbs, IntVal(-7)); v.I != 7 {
		t.Errorf("abs = %v", v)
	}
	if v := EvalUn(OpAbs, IntVal(7)); v.I != 7 {
		t.Errorf("abs(+) = %v", v)
	}
	// Math on an int promotes to f32.
	if v := EvalUn(OpSqrt, IntVal(16)); v.T != F32 || v.F != 4 {
		t.Errorf("sqrt(int) = %v", v)
	}
	if v := EvalUn(OpRsqrt, F64Val(16)); v.F != 0.25 {
		t.Errorf("rsqrt = %v", v)
	}
	if v := EvalUn(OpFloor, F32Val(-1.5)); v.F != -2 {
		t.Errorf("floor = %v", v)
	}
}

// TestBinEvalFloatMod: float modulus follows math.Mod.
func TestBinEvalFloatMod(t *testing.T) {
	v := EvalBin(OpMod, F64Val(7.5), F64Val(2))
	if v.F != 1.5 {
		t.Errorf("fmod = %v", v)
	}
	if v := EvalBin(OpMin, F32Val(2), F32Val(3)); v.F != 2 {
		t.Errorf("fmin = %v", v)
	}
	if v := EvalBin(OpMax, F32Val(2), F32Val(3)); v.F != 3 {
		t.Errorf("fmax = %v", v)
	}
	// Float compares.
	if v := EvalBin(OpLE, F32Val(1), F32Val(1)); v.I != 1 {
		t.Errorf("fle = %v", v)
	}
	if v := EvalBin(OpNE, F32Val(1), F32Val(2)); v.I != 1 {
		t.Errorf("fne = %v", v)
	}
	if v := EvalBin(OpGE, F64Val(1), F64Val(2)); v.I != 0 {
		t.Errorf("fge = %v", v)
	}
	if v := EvalBin(OpEQ, F64Val(2), F64Val(2)); v.I != 1 {
		t.Errorf("feq = %v", v)
	}
	// Float div by zero is IEEE.
	if v := EvalBin(OpDiv, F32Val(1), F32Val(0)); !math.IsInf(v.F, 1) {
		t.Errorf("fdiv/0 = %v", v)
	}
}

func TestTypeStringFallbacks(t *testing.T) {
	if Type(99).String() == "" {
		t.Error("unknown type should stringify")
	}
	if BinOp(99).String() == "" {
		t.Error("unknown op should stringify")
	}
	if UnOp(99).String() == "" {
		t.Error("unknown unop should stringify")
	}
	if AccessPattern(99).String() == "" {
		t.Error("unknown pattern should stringify")
	}
}
