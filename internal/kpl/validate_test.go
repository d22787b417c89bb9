package kpl

import "testing"

func TestValidateAcceptsGoodKernel(t *testing.T) {
	if err := vecAddKernel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		k    *Kernel
	}{
		{"empty name", &Kernel{}},
		{"dup buffer", &Kernel{Name: "k", Bufs: []BufDecl{{Name: "a", Elem: F32}, {Name: "a", Elem: F32}}}},
		{"empty buffer name", &Kernel{Name: "k", Bufs: []BufDecl{{Elem: F32}}}},
		{"dup param", &Kernel{Name: "k", Params: []ParamDecl{{Name: "n"}, {Name: "n"}}}},
		{"empty param name", &Kernel{Name: "k", Params: []ParamDecl{{}}}},
		{"undeclared store", &Kernel{Name: "k", Body: []Stmt{Store("ghost", CI(0), CI(0))}}},
		{"undeclared load", &Kernel{
			Name: "k",
			Bufs: []BufDecl{{Name: "o", Elem: F32}},
			Body: []Stmt{Store("o", CI(0), Load("ghost", CI(0)))},
		}},
		{"undeclared param", &Kernel{
			Name: "k",
			Bufs: []BufDecl{{Name: "o", Elem: F32}},
			Body: []Stmt{Store("o", CI(0), P("ghost"))},
		}},
		{"undeclared atomic", &Kernel{Name: "k", Body: []Stmt{AtomicAdd("ghost", CI(0), CI(1))}}},
		{"store readonly", &Kernel{
			Name: "k",
			Bufs: []BufDecl{{Name: "in", Elem: F32, ReadOnly: true}},
			Body: []Stmt{Store("in", CI(0), CF(1))},
		}},
		{"atomic readonly", &Kernel{
			Name: "k",
			Bufs: []BufDecl{{Name: "in", Elem: F32, ReadOnly: true}},
			Body: []Stmt{AtomicAdd("in", CI(0), CF(1))},
		}},
		{"break outside loop", &Kernel{Name: "k", Body: []Stmt{Break()}}},
		{"dup loop label", &Kernel{
			Name: "k",
			Body: []Stmt{
				For("l", "i", CI(0), CI(1)),
				For("l", "i", CI(0), CI(1)),
			},
		}},
		{"empty loop var", &Kernel{Name: "k", Body: []Stmt{For("l", "", CI(0), CI(1))}}},
		{"empty let name", &Kernel{Name: "k", Body: []Stmt{Let("", CI(0))}}},
		{"nil expr", &Kernel{Name: "k", Body: []Stmt{Let("x", nil)}}},
	}
	for _, tc := range cases {
		if err := tc.k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid kernel", tc.name)
		}
	}
}

func TestValidateAssignsLoopLabels(t *testing.T) {
	k := &Kernel{
		Name: "k",
		Body: []Stmt{
			For("", "i", CI(0), CI(1)),
			For("", "j", CI(0), CI(1)),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	l1 := k.Body[0].(*ForStmt).Label
	l2 := k.Body[1].(*ForStmt).Label
	if l1 == "" || l2 == "" || l1 == l2 {
		t.Fatalf("auto labels: %q, %q", l1, l2)
	}
}

func TestBreakInsideNestedIfInLoop(t *testing.T) {
	k := &Kernel{
		Name: "k",
		Body: []Stmt{
			For("l", "i", CI(0), CI(10),
				If(GT(V("i"), CI(3)), Break()),
			),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// But break in an else branch outside any loop is rejected.
	k2 := &Kernel{
		Name: "k2",
		Body: []Stmt{IfElse(CI(1), []Stmt{}, []Stmt{Break()})},
	}
	if err := k2.Validate(); err == nil {
		t.Fatal("break in else outside loop accepted")
	}
}

func TestSignatureStability(t *testing.T) {
	a := vecAddKernel()
	b := vecAddKernel()
	if a.Signature() != b.Signature() {
		t.Fatal("identical kernels have different signatures")
	}
	// Different name → different signature.
	c := vecAddKernel()
	c.Name = "other"
	if a.Signature() == c.Signature() {
		t.Fatal("renamed kernel has same signature")
	}
	// Different body → different signature.
	d := vecAddKernel()
	d.Body = []Stmt{Store("out", TID(), Load("a", TID()))}
	if a.Signature() == d.Signature() {
		t.Fatal("different body has same signature")
	}
}

func TestTypeHelpers(t *testing.T) {
	if Promote(I32, F32) != F32 || Promote(F32, F64) != F64 || Promote(I32, I32) != I32 {
		t.Error("Promote wrong")
	}
	if I32.Size() != 4 || F32.Size() != 4 || F64.Size() != 8 {
		t.Error("Size wrong")
	}
	if I32.String() != "i32" || F64.String() != "f64" {
		t.Error("Type String wrong")
	}
	if OpAdd.String() != "add" || OpShr.String() != "shr" {
		t.Error("BinOp String wrong")
	}
	if OpSqrt.String() != "sqrt" {
		t.Error("UnOp String wrong")
	}
	if AccessSeq.String() != "seq" || AccessRandom.String() != "random" {
		t.Error("AccessPattern String wrong")
	}
	if OpExp.IntrinsicCost() != 8 || OpNeg.IntrinsicCost() != 1 || OpSin.IntrinsicCost() != 10 {
		t.Error("IntrinsicCost wrong")
	}
}

func TestKernelAccessors(t *testing.T) {
	k := vecAddKernel()
	if k.Buf("a") == nil || k.Buf("ghost") != nil {
		t.Error("Buf accessor wrong")
	}
	if k.Param("n") == nil || k.Param("ghost") != nil {
		t.Error("Param accessor wrong")
	}
}
