package kir

import (
	"testing"

	"repro/internal/kpl"
)

// coverKernel is a kernel over a read-only "x" and a writable "out" whose
// body is the given statements; "n" and "trips" are its i32 parameters.
func coverKernel(body ...kpl.Stmt) *kpl.Kernel {
	return &kpl.Kernel{
		Name:   "cover",
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}, {Name: "trips", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "x", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: body,
	}
}

// gs is the grid-stride index tid + j·NT.
func gs() kpl.Expr { return kpl.Add(kpl.TID(), kpl.Mul(kpl.V("j"), kpl.NT())) }

// oneStore is `if tid < n { out[tid] = x[tid] + 1 }`.
func oneStore() *kpl.Kernel {
	return coverKernel(kpl.If(kpl.LT(kpl.TID(), kpl.P("n")),
		kpl.Store("out", kpl.TID(), kpl.Add(kpl.Load("x", kpl.TID()), kpl.CF(1)))))
}

// strided is the grid-stride loop over `trips` iterations:
// `for j in [0, trips) { i = tid + j·NT; if i < n { out[i] = x[i]·2 } }`.
func strided(trips kpl.Expr) *kpl.Kernel {
	return coverKernel(kpl.For("elems", "j", kpl.CI(0), trips,
		kpl.Let("i", gs()),
		kpl.If(kpl.LT(kpl.V("i"), kpl.P("n")),
			kpl.Let("v", kpl.Mul(kpl.Load("x", kpl.V("i")), kpl.CF(2))),
			kpl.Store("out", kpl.V("i"), kpl.V("v")))))
}

// runCovered runs k on the interpreter over a 64-element "out" pre-filled
// with poison, twice with different poisons, and checks that the first
// min(covered, 64) elements come out the same both times — each was stored —
// and every later one is still the poison. A launch that faults is released
// whole and checks nothing.
func runCovered(t *testing.T, k *kpl.Kernel, nt int, params map[string]kpl.Value, covered int) {
	t.Helper()
	const elems = 64
	var first []float32
	for _, poison := range []float32{-7.5, 1e30} {
		x, out := kpl.NewBuffer(kpl.F32, elems), kpl.NewBuffer(kpl.F32, elems)
		for i := range out.F32s {
			x.F32s[i] = float32(i)
			out.F32s[i] = poison
		}
		env := &kpl.Env{NThreads: nt, Params: params, Bufs: map[string]*kpl.Buffer{"x": x, "out": out}}
		if err := k.InterpretAll(env, nil); err != nil {
			return
		}
		prefix := min(covered, elems)
		for i := prefix; i < elems; i++ {
			if out.F32s[i] != poison {
				t.Fatalf("out[%d] written past the prefix %d", i, covered)
			}
		}
		if first == nil {
			first = append([]float32(nil), out.F32s[:prefix]...)
			continue
		}
		for i := range first {
			if first[i] != out.F32s[i] {
				t.Fatalf("out[%d] inside the prefix %d was not stored", i, covered)
			}
		}
	}
}

func TestCoveredShapes(t *testing.T) {
	params := func(n, trips int) map[string]kpl.Value {
		return map[string]kpl.Value{"n": kpl.IntVal(int64(n)), "trips": kpl.IntVal(int64(trips))}
	}
	ept := kpl.Div(kpl.Add(kpl.P("n"), kpl.Sub(kpl.NT(), kpl.CI(1))), kpl.NT())
	cases := []struct {
		name string
		k    *kpl.Kernel
		want func(n, trips, nt int) int
	}{
		{"tid", oneStore(), func(n, _, nt int) int { return min(n, nt) }},
		{"grid-stride ⌈n/NT⌉", strided(ept), func(n, _, _ int) int { return n }},
		{"grid-stride trips", strided(kpl.P("trips")), func(n, trips, nt int) int { return min(n, trips*nt) }},
	}
	for _, c := range cases {
		p := mustAnalyze(t, c.k)
		if got := p.Covered(0, Launch{NThreads: 32, Params: params(64, 2)}); got != 0 {
			t.Errorf("%s: read-only x covered %d", c.name, got)
		}
		for _, nt := range []int{1, 7, 32, 64, 100} {
			for _, n := range []int{-3, 0, 17, 63, 64, 65, 200} { // below, at and above the 64-element buffer
				for _, trips := range []int{0, 1, 3} {
					l := Launch{NThreads: nt, Params: params(n, trips)}
					want := max(c.want(n, trips, nt), 0)
					if got := p.Covered(1, l); got != want {
						t.Fatalf("%s: n=%d trips=%d NT=%d: covered %d, want %d", c.name, n, trips, nt, got, want)
					}
					runCovered(t, c.k, nt, l.Params, want)
				}
			}
		}
	}
}

// TestCoveredRefuses: any shape but the two covers nothing.
func TestCoveredRefuses(t *testing.T) {
	guard := kpl.LT(kpl.V("i"), kpl.P("n"))
	loop := func(body ...kpl.Stmt) *kpl.Kernel {
		return coverKernel(kpl.For("elems", "j", kpl.CI(0), kpl.P("trips"), body...))
	}
	store := kpl.Store("out", kpl.V("i"), kpl.CF(1))
	cases := map[string]*kpl.Kernel{
		"out loaded": loop(kpl.Let("i", gs()),
			kpl.If(guard, kpl.Store("out", kpl.V("i"), kpl.Add(kpl.Load("out", kpl.V("i")), kpl.CF(1))))),
		"out loaded elsewhere": coverKernel(
			kpl.If(kpl.LT(kpl.TID(), kpl.P("n")), kpl.Store("out", kpl.TID(), kpl.CF(1))),
			kpl.Let("y", kpl.Load("out", kpl.CI(0)))),
		"out updated atomically": coverKernel(
			kpl.If(kpl.LT(kpl.TID(), kpl.P("n")), kpl.Store("out", kpl.TID(), kpl.CF(1))),
			kpl.AtomicAdd("out", kpl.CI(0), kpl.CF(1))),
		"store under a nested if": loop(kpl.Let("i", gs()),
			kpl.If(guard, kpl.If(kpl.GT(kpl.Load("x", kpl.V("i")), kpl.CF(0)), store))),
		"break before the store": loop(kpl.Let("i", gs()),
			kpl.If(kpl.GE(kpl.V("i"), kpl.P("n")), kpl.Break()),
			kpl.If(guard, store)),
		"index without NT": loop(kpl.Let("i", kpl.Add(kpl.TID(), kpl.V("j"))), kpl.If(guard, store)),
		"index not tid": coverKernel(
			kpl.If(kpl.LT(kpl.TID(), kpl.P("n")), kpl.Store("out", kpl.Add(kpl.TID(), kpl.CI(1)), kpl.CF(1)))),
		"store at another index": loop(kpl.Let("i", gs()),
			kpl.If(guard, kpl.Store("out", kpl.Add(kpl.V("i"), kpl.CI(1)), kpl.CF(1)))),
		"i reassigned before the guard": loop(kpl.Let("i", gs()),
			kpl.Let("i", kpl.Add(kpl.V("i"), kpl.CI(1))),
			kpl.If(guard, store)),
		"i reassigned in a nested if": loop(kpl.Let("i", gs()),
			kpl.If(kpl.GT(kpl.Load("x", kpl.CI(0)), kpl.CF(0)), kpl.Let("i", kpl.CI(0))),
			kpl.If(guard, store)),
		"i reassigned inside the guard": loop(kpl.Let("i", gs()),
			kpl.If(guard, kpl.Let("i", kpl.Add(kpl.V("i"), kpl.CI(1))), store)),
		"loop variable reassigned": loop(kpl.Let("i", gs()),
			kpl.Let("j", kpl.Add(kpl.V("j"), kpl.CI(1))),
			kpl.If(guard, store)),
		"loop not from zero": coverKernel(kpl.For("elems", "j", kpl.CI(1), kpl.P("trips"),
			kpl.Let("i", gs()), kpl.If(guard, store))),
		"bound read from memory": loop(kpl.Let("i", gs()),
			kpl.If(kpl.LT(kpl.V("i"), kpl.ToI32(kpl.Load("x", kpl.CI(0)))), store)),
		"loop under an if": coverKernel(kpl.If(kpl.GT(kpl.P("trips"), kpl.CI(0)),
			kpl.For("elems", "j", kpl.CI(0), kpl.P("trips"), kpl.Let("i", gs()), kpl.If(guard, store)))),
		"no guard": coverKernel(kpl.Store("out", kpl.TID(), kpl.CF(1))),
	}
	l := Launch{NThreads: 32, Params: map[string]kpl.Value{"n": kpl.IntVal(64), "trips": kpl.IntVal(2)}}
	for name, k := range cases {
		if got := mustAnalyze(t, k).Covered(1, l); got != 0 {
			t.Errorf("%s: covered %d, want 0", name, got)
		}
	}
}
