package kir

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/kpl"
)

// Launch carries everything needed to resolve λ for one kernel invocation.
type Launch struct {
	NThreads int
	Params   map[string]kpl.Value
}

// Sigma derives the expected whole-kernel instruction vector σ{K,T} of
// Eq. 1 for a launch on target architecture g. Loop bounds that depend only
// on launch parameters are evaluated statically; data-dependent loops
// (break-carrying or bound on loaded values) take their mean trip counts
// from dyn, the dynamic interpretation statistics. Sigma returns an error if
// a dynamic λ is required but dyn does not cover the loop.
func (p *Program) Sigma(g *arch.GPU, l Launch, dyn *kpl.Stats) (arch.ClassVec, error) {
	raw, err := p.rawSigma(l, dyn)
	if err != nil {
		return arch.ClassVec{}, err
	}
	return raw.Mul(g.Expand), nil
}

// SigmaPerThread returns σ{K,T}/NThreads, the per-thread instruction vector
// used by the host-GPU timing model.
func (p *Program) SigmaPerThread(g *arch.GPU, l Launch, dyn *kpl.Stats) (arch.ClassVec, error) {
	s, err := p.Sigma(g, l, dyn)
	if err != nil {
		return arch.ClassVec{}, err
	}
	if l.NThreads <= 0 {
		return arch.ClassVec{}, fmt.Errorf("kir: %s: non-positive thread count", p.Kernel.Name)
	}
	return s.Scale(1 / float64(l.NThreads)), nil
}

// RawSigma computes Σ_b λ_b·µ_b in canonical (un-expanded) instructions —
// the instruction count of the kernel as written, before recompilation for a
// particular target. The device-emulation baseline executes exactly this
// stream.
func (p *Program) RawSigma(l Launch, dyn *kpl.Stats) (arch.ClassVec, error) {
	return p.rawSigma(l, dyn)
}

// rawSigma computes Σ_b λ_b·µ_b in canonical (un-expanded) instructions.
func (p *Program) rawSigma(l Launch, dyn *kpl.Stats) (arch.ClassVec, error) {
	var total arch.ClassVec
	var walk func(b *Block, lambda float64) error
	walk = func(b *Block, lambda float64) error {
		myLambda := lambda
		switch b.Kind {
		case TripRoot:
			// one execution per thread
		case TripLoop:
			trips, err := p.loopTrips(b, l, dyn)
			if err != nil {
				return err
			}
			myLambda *= trips
		case TripBranch:
			myLambda *= b.Weight
		}
		total = total.Add(b.Mu.Scale(myLambda))
		for _, c := range b.Children {
			if err := walk(c, myLambda); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.Root, float64(l.NThreads)); err != nil {
		return arch.ClassVec{}, err
	}
	return total, nil
}

// loopTrips resolves λ for one loop: statically when possible, else from
// dynamic statistics.
func (p *Program) loopTrips(b *Block, l Launch, dyn *kpl.Stats) (float64, error) {
	if !b.HasBreak {
		start, okS := evalStatic(b.Start, l)
		end, okE := evalStatic(b.End, l)
		if okS && okE {
			return math.Max(0, end-start), nil
		}
	}
	if dyn != nil {
		if _, ok := dyn.Entries[b.Label]; ok {
			return dyn.MeanTrips(b.Label), nil
		}
	}
	return 0, fmt.Errorf("kir: %s: loop %q has a data-dependent trip count; dynamic profile required", p.Kernel.Name, b.Label)
}

// evalStatic evaluates an expression that depends only on constants, launch
// parameters and the launch width. It reports ok=false when the expression
// involves thread-dependent or memory-dependent terms.
func evalStatic(e kpl.Expr, l Launch) (float64, bool) {
	v, ok := evalStaticVal(e, l)
	if !ok {
		return 0, false
	}
	return v.Float(), true
}

func evalStaticVal(e kpl.Expr, l Launch) (kpl.Value, bool) {
	switch x := e.(type) {
	case *kpl.Const:
		return kpl.Value{T: x.T, F: x.F, I: x.I}, true
	case *kpl.NTExpr:
		return kpl.IntVal(int64(l.NThreads)), true
	case *kpl.ParamExpr:
		v, ok := l.Params[x.Name]
		return v, ok
	case *kpl.BinExpr:
		a, ok := evalStaticVal(x.A, l)
		if !ok {
			return kpl.Value{}, false
		}
		b, ok := evalStaticVal(x.B, l)
		if !ok {
			return kpl.Value{}, false
		}
		return kpl.EvalBin(x.Op, a, b), true
	case *kpl.UnExpr:
		a, ok := evalStaticVal(x.A, l)
		if !ok {
			return kpl.Value{}, false
		}
		return kpl.EvalUn(x.Op, a), true
	case *kpl.CastExpr:
		a, ok := evalStaticVal(x.A, l)
		if !ok {
			return kpl.Value{}, false
		}
		return a.Convert(x.T), true
	case *kpl.SelExpr:
		c, ok := evalStaticVal(x.Cond, l)
		if !ok {
			return kpl.Value{}, false
		}
		a, ok := evalStaticVal(x.A, l)
		if !ok {
			return kpl.Value{}, false
		}
		b, ok := evalStaticVal(x.B, l)
		if !ok {
			return kpl.Value{}, false
		}
		if c.Bool() {
			return a, true
		}
		return b, true
	default:
		// TID, Var, Load: thread- or data-dependent.
		return kpl.Value{}, false
	}
}

// BufAccess is the expected dynamic load/store count against one buffer for
// a whole launch.
type BufAccess struct {
	Loads, Stores float64
}

// Total returns loads + stores.
func (b BufAccess) Total() float64 { return b.Loads + b.Stores }

// BufAccesses derives the expected per-buffer access counts for a launch,
// using the same λ resolution as Sigma. The result feeds the probabilistic
// cache model.
func (p *Program) BufAccesses(l Launch, dyn *kpl.Stats) (map[string]BufAccess, error) {
	out := map[string]BufAccess{}
	var walk func(b *Block, lambda float64) error
	walk = func(b *Block, lambda float64) error {
		myLambda := lambda
		switch b.Kind {
		case TripLoop:
			trips, err := p.loopTrips(b, l, dyn)
			if err != nil {
				return err
			}
			myLambda *= trips
		case TripBranch:
			myLambda *= b.Weight
		}
		for name, n := range b.BufLd {
			a := out[name]
			a.Loads += n * myLambda
			out[name] = a
		}
		for name, n := range b.BufSt {
			a := out[name]
			a.Stores += n * myLambda
			out[name] = a
		}
		for _, c := range b.Children {
			if err := walk(c, myLambda); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.Root, float64(l.NThreads)); err != nil {
		return nil, err
	}
	return out, nil
}

// Blocks returns all blocks of the program in depth-first order.
func (p *Program) Blocks() []*Block {
	var out []*Block
	var walk func(b *Block)
	walk = func(b *Block) {
		out = append(out, b)
		for _, c := range b.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

func staticResolvable(e kpl.Expr) bool {
	switch x := e.(type) {
	case *kpl.Const, *kpl.NTExpr, *kpl.ParamExpr:
		return true
	case *kpl.BinExpr:
		return staticResolvable(x.A) && staticResolvable(x.B)
	case *kpl.UnExpr:
		return staticResolvable(x.A)
	case *kpl.CastExpr:
		return staticResolvable(x.A)
	case *kpl.SelExpr:
		return staticResolvable(x.Cond) && staticResolvable(x.A) && staticResolvable(x.B)
	default:
		return false
	}
}
