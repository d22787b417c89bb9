package kir

import (
	"math"
	"slices"

	"repro/internal/kpl"
)

// cover records that every thread of a launch stores one element of a
// writable buffer before anything can read it, in one of two shapes:
//
//	if tid < bound { …; store(B, tid, …) }                         (trips == nil)
//	for j in [0, trips) { i = tid + j·NT; if i < bound { …; store(B, i, …) } }
//
// so a launch overwrites B's first min(bound, NT) or min(bound, trips·NT)
// elements. A zero cover (bound == nil) covers nothing.
type cover struct {
	bound, trips kpl.Expr
}

// Covered returns how many leading elements of the kernel's buf-th buffer
// (index into Kernel.Bufs) a launch with l's parameters overwrites before
// reading any: a launch that runs to completion has stored every one of them,
// so their previous contents cannot reach its result. It is 0 for a read-only
// buffer and for any buffer the kernel loads, atomically updates, or stores in
// a shape Analyze does not recognise, and for any kernel with a break.
func (p *Program) Covered(buf int, l Launch) int {
	if buf >= len(p.covers) || p.covers[buf].bound == nil {
		return 0
	}
	c := p.covers[buf]
	e, ok := evalStaticVal(c.bound, l)
	if !ok || e.T != kpl.I32 {
		return 0
	}
	trips := 1.0
	if c.trips != nil {
		t, ok := evalStaticVal(c.trips, l)
		if !ok {
			return 0
		}
		trips = float64(t.Int()) // the interpreter's trip count: end.Int() − 0
	}
	return int(max(0, math.Min(float64(e.Int()), trips*float64(l.NThreads))))
}

// coverage finds each writable buffer's cover, indexed like k.Bufs, or nil
// when the kernel covers none. blocks are the kernel's analyzed blocks: a
// buffer with a load or atomic in any (BufLd) has no cover, nor has any buffer
// of a kernel with a break.
func coverage(k *kpl.Kernel, blocks []*Block) []cover {
	for _, b := range blocks {
		if b.HasBreak {
			return nil
		}
	}
	var covers []cover
	for i := range k.Bufs {
		d := &k.Bufs[i]
		if d.ReadOnly || loaded(blocks, d.Name) {
			continue
		}
		for _, s := range k.Body {
			if c := coverOf(s, d.Name); c.bound != nil {
				if covers == nil {
					covers = make([]cover, len(k.Bufs))
				}
				covers[i] = c
				break
			}
		}
	}
	return covers
}

// loaded reports whether any of blocks loads buf or updates it atomically
// (an atomic counts as a load in BufLd).
func loaded(blocks []*Block, buf string) bool {
	return slices.ContainsFunc(blocks, func(b *Block) bool { return b.BufLd[buf] > 0 })
}

// coverOf matches one top-level statement against the two shapes for buffer
// buf.
func coverOf(s kpl.Stmt, buf string) cover {
	switch x := s.(type) {
	case *kpl.IfStmt:
		if bound := guardBound(x.Cond, isTID); bound != nil && storesFirst(x.Then, buf, isTID, "") {
			return cover{bound: bound}
		}
	case *kpl.ForStmt:
		if !isZero(x.Start) || !staticResolvable(x.End) || assigns(x.Body, x.Var) {
			return cover{}
		}
		idx := "" // the variable holding tid + j·NT at this point of the body
		isIdx := func(e kpl.Expr) bool { v, ok := e.(*kpl.VarExpr); return ok && v.Name == idx }
		for n, s := range x.Body {
			if let, ok := s.(*kpl.LetStmt); ok && isGridStride(let.E, x.Var) {
				idx = let.Name
				continue
			}
			if guard, ok := s.(*kpl.IfStmt); ok {
				if bound := guardBound(guard.Cond, isIdx); bound != nil && storesFirst(guard.Then, buf, isIdx, idx) {
					return cover{bound: bound, trips: x.End}
				}
			}
			if assigns(x.Body[n:n+1], idx) {
				idx = ""
			}
		}
	}
	return cover{}
}

// guardBound returns E when cond is idx < E with idx accepted by isIdx and E
// resolvable from launch parameters alone, else nil.
func guardBound(cond kpl.Expr, isIdx func(kpl.Expr) bool) kpl.Expr {
	b, ok := cond.(*kpl.BinExpr)
	if !ok || b.Op != kpl.OpLT || !isIdx(b.A) || !staticResolvable(b.B) {
		return nil
	}
	return b.B
}

// isGridStride reports whether e is tid + j·NT.
func isGridStride(e kpl.Expr, j string) bool {
	sum, _ := e.(*kpl.BinExpr)
	if sum == nil || sum.Op != kpl.OpAdd || !isTID(sum.A) {
		return false
	}
	prod, _ := sum.B.(*kpl.BinExpr)
	if prod == nil || prod.Op != kpl.OpMul {
		return false
	}
	v, _ := prod.A.(*kpl.VarExpr)
	_, nt := prod.B.(*kpl.NTExpr)
	return v != nil && v.Name == j && nt
}

// storesFirst reports whether arm stores buf at an index isIdx accepts as
// one of its own statements, with v (the index variable, "" for tid) not
// reassigned before it.
func storesFirst(arm []kpl.Stmt, buf string, isIdx func(kpl.Expr) bool, v string) bool {
	for n, s := range arm {
		if st, ok := s.(*kpl.StoreStmt); ok && st.Buf == buf && isIdx(st.Idx) {
			return true
		}
		if assigns(arm[n:n+1], v) {
			return false
		}
	}
	return false
}

func isTID(e kpl.Expr) bool { _, ok := e.(*kpl.TIDExpr); return ok }

func isZero(e kpl.Expr) bool {
	c, ok := e.(*kpl.Const)
	return ok && c.T == kpl.I32 && c.I == 0
}

// assigns reports whether any statement of ss, nested ones included, assigns
// variable v (a let, or a loop's variable).
func assigns(ss []kpl.Stmt, v string) bool {
	for _, s := range ss {
		switch x := s.(type) {
		case *kpl.LetStmt:
			if x.Name == v {
				return true
			}
		case *kpl.ForStmt:
			if x.Var == v || assigns(x.Body, v) {
				return true
			}
		case *kpl.IfStmt:
			if assigns(x.Then, v) || assigns(x.Else, v) {
				return true
			}
		}
	}
	return false
}
