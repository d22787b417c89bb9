package kir_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/kpl/kplgen"
)

// walkNeedsDynamicProfile is the block walk NeedsDynamicProfile used to make
// on every call, kept here as the oracle for the flag Analyze records.
func walkNeedsDynamicProfile(p *kir.Program) bool {
	var static func(e kpl.Expr) bool
	static = func(e kpl.Expr) bool {
		switch x := e.(type) {
		case *kpl.Const, *kpl.NTExpr, *kpl.ParamExpr:
			return true
		case *kpl.BinExpr:
			return static(x.A) && static(x.B)
		case *kpl.UnExpr:
			return static(x.A)
		case *kpl.CastExpr:
			return static(x.A)
		case *kpl.SelExpr:
			return static(x.Cond) && static(x.A) && static(x.B)
		default:
			return false
		}
	}
	for _, b := range p.Blocks() {
		if b.Kind == kir.TripLoop && (b.HasBreak || !static(b.Start) || !static(b.End)) {
			return true
		}
	}
	return false
}

// TestNeedsDynamicProfileMatchesWalk: over the registry and the kplgen random
// corpus, the flag recorded at analysis equals the walk, and both answers occur.
func TestNeedsDynamicProfileMatchesWalk(t *testing.T) {
	var ks []*kpl.Kernel
	for _, b := range kernels.All() {
		ks = append(ks, b.Kernel)
	}
	if len(ks) != 28 {
		t.Fatalf("registry has %d kernels, want 28", len(ks))
	}
	rng := rand.New(rand.NewSource(0x5167a))
	for i := 0; i < 600; i++ {
		data := make([]byte, 24+rng.Intn(160))
		rng.Read(data)
		if k, _, ok := kplgen.Decode(data); ok {
			ks = append(ks, k)
		}
	}
	seen := map[bool]int{}
	for _, k := range ks {
		p, err := kir.Analyze(k)
		if err != nil {
			continue // the corpus holds kernels kpl accepts and kir does not
		}
		want := walkNeedsDynamicProfile(p)
		if got := p.NeedsDynamicProfile(); got != want {
			t.Errorf("%s: recorded %v, the walk says %v", k.Name, got, want)
		}
		seen[want]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("corpus is one-sided: %v", seen)
	}
	t.Logf("%d static, %d data-dependent", seen[false], seen[true])
}
