// Package kir lowers a kpl kernel into the paper's block-level intermediate
// representation: a tree of program blocks b, each carrying its static
// per-class instruction count µ{b} and a description of how often it runs
// (its iteration count λ_b). From these the package derives the expected
// whole-kernel instruction vector of Eq. 1,
//
//	σ{K,T} = Σ_i Σ_b λ_b · µ{b_i,T},
//
// where the per-target counts µ{b,T} are obtained by scaling the canonical
// counts with the target's per-class expansion factors (recompilation for T,
// Fig. 8: the same block has 32 instructions on the host and 43 on the
// target).
//
// λ_b is resolved statically when the loop bounds depend only on launch
// parameters, and from dynamic interpretation statistics (kpl.Stats)
// otherwise — mirroring the paper's dynamically-inserted PTX counters
// (footnote 2).
package kir

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/kpl"
)

// TripKind says how a block's iteration count is determined.
type TripKind uint8

// Trip kinds.
const (
	TripRoot   TripKind = iota // runs once per thread
	TripLoop                   // a counted loop: λ from bounds or dynamic stats
	TripBranch                 // a conditional arm: λ weighted by taken probability
)

// Block is one program block: "the largest portion of the kernel that has a
// distinct execution path determined by control instructions" (paper
// footnote 3).
type Block struct {
	Label string
	Kind  TripKind

	// Mu is the canonical per-execution instruction count of the block's
	// straight-line code (nested loops and branch arms excluded — they are
	// children).
	Mu arch.ClassVec

	// Loop metadata (Kind == TripLoop).
	Start, End kpl.Expr // bounds; trip count = max(0, End-Start)
	HasBreak   bool     // data-dependent exit: λ must come from dynamic stats

	// Branch metadata (Kind == TripBranch).
	Weight float64 // static probability the arm executes

	// BufLd/BufSt count the loads/stores the block issues against each
	// buffer per execution, feeding the cache model's access streams.
	BufLd map[string]float64
	BufSt map[string]float64

	Children []*Block
}

// newBlock returns an empty block of the given label and kind.
func newBlock(label string, kind TripKind) *Block {
	return &Block{Label: label, Kind: kind, BufLd: map[string]float64{}, BufSt: map[string]float64{}}
}

// Program is the analyzed kernel. Analyze is its only constructor, so what it
// records about the kernel — identity, dynamic — is fixed with the blocks; a
// kernel whose body or declarations change afterwards is analyzed again.
type Program struct {
	Kernel *kpl.Kernel
	Root   *Block

	identity uint64
	dynamic  bool
}

// Identity is what a launch of the kernel is matched and priced by: the
// kernel's structural signature (kpl.Kernel.Signature) with every buffer's
// Stride and L2Fraction folded in, which the signature leaves out and the
// cache model reads. Like the signature it does not depend on the order of
// the buffer declarations, and is compared within one process only.
func (p *Program) Identity() uint64 { return p.identity }

// NeedsDynamicProfile reports whether any loop's λ is data-dependent, i.e.
// Sigma requires dynamic statistics for this kernel.
func (p *Program) NeedsDynamicProfile() bool { return p.dynamic }

// Analyze lowers the kernel. The kernel must already Validate.
func Analyze(k *kpl.Kernel) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	a := &analyzer{k: k, vars: map[string]kpl.Type{}}
	root := newBlock("root", TripRoot)
	if err := a.stmts(k.Body, root); err != nil {
		return nil, err
	}
	p := &Program{Kernel: k, Root: root, identity: identity(k)}
	for _, b := range p.Blocks() {
		// Bounds referencing TID/Var/Load cannot be resolved statically.
		if b.Kind == TripLoop && (b.HasBreak || !staticResolvable(b.Start) || !staticResolvable(b.End)) {
			p.dynamic = true
			break
		}
	}
	return p, nil
}

// identity hashes the kernel's signature with its buffers' cache hints; the
// per-buffer hashes are summed, so the declarations' order does not matter.
func identity(k *kpl.Kernel) uint64 {
	var hints uint64
	for i := range k.Bufs {
		d := kpl.NewHash()
		d.Str(k.Bufs[i].Name)
		d.U64(uint64(k.Bufs[i].Stride))
		d.U64(math.Float64bits(k.Bufs[i].L2Fraction))
		hints += d.Sum()
	}
	id := kpl.NewHash()
	id.U64(k.Signature())
	id.U64(hints)
	return id.Sum()
}

type analyzer struct {
	k       *kpl.Kernel
	vars    map[string]kpl.Type
	nBranch int
}

func (a *analyzer) stmts(ss []kpl.Stmt, b *Block) error {
	for _, s := range ss {
		switch x := s.(type) {
		case *kpl.LetStmt:
			t, err := a.expr(x.E, b)
			if err != nil {
				return err
			}
			a.vars[x.Name] = t
		case *kpl.StoreStmt:
			if _, err := a.expr(x.Idx, b); err != nil {
				return err
			}
			if _, err := a.expr(x.Val, b); err != nil {
				return err
			}
			b.Mu[arch.St]++
			b.BufSt[x.Buf]++
		case *kpl.AtomicAddStmt:
			if _, err := a.expr(x.Idx, b); err != nil {
				return err
			}
			if _, err := a.expr(x.Val, b); err != nil {
				return err
			}
			b.Mu[arch.Ld]++
			b.Mu[arch.St]++
			b.BufLd[x.Buf]++
			b.BufSt[x.Buf]++
		case *kpl.ForStmt:
			// Bounds evaluate once per entry, in the parent block.
			if _, err := a.expr(x.Start, b); err != nil {
				return err
			}
			if _, err := a.expr(x.End, b); err != nil {
				return err
			}
			child := newBlock(x.Label, TripLoop)
			child.Start, child.End = x.Start, x.End
			// Per-iteration loop bookkeeping, matching the interpreter.
			child.Mu[arch.Int] += 2
			child.Mu[arch.Branch]++
			a.vars[x.Var] = kpl.I32
			if err := a.stmts(x.Body, child); err != nil {
				return err
			}
			child.HasBreak = child.HasBreak || containsBreak(x.Body)
			b.Children = append(b.Children, child)
		case *kpl.IfStmt:
			if _, err := a.expr(x.Cond, b); err != nil {
				return err
			}
			b.Mu[arch.Branch]++
			prob := x.TakenProb
			if prob <= 0 || prob > 1 {
				prob = 0.5
			}
			if len(x.Then) > 0 {
				a.nBranch++
				arm := newBlock(fmt.Sprintf("then%d", a.nBranch), TripBranch)
				arm.Weight = prob
				if err := a.stmts(x.Then, arm); err != nil {
					return err
				}
				b.Children = append(b.Children, arm)
			}
			if len(x.Else) > 0 {
				a.nBranch++
				arm := newBlock(fmt.Sprintf("else%d", a.nBranch), TripBranch)
				arm.Weight = 1 - prob
				if err := a.stmts(x.Else, arm); err != nil {
					return err
				}
				b.Children = append(b.Children, arm)
			}
		case *kpl.BreakStmt:
			b.Mu[arch.Branch]++
		default:
			return fmt.Errorf("kir: %s: unknown statement %T", a.k.Name, s)
		}
	}
	return nil
}

func classOf(t kpl.Type) arch.InstrClass {
	switch t {
	case kpl.F32:
		return arch.FP32
	case kpl.F64:
		return arch.FP64
	default:
		return arch.Int
	}
}

// expr counts the instructions of one evaluation of e into mu and returns
// the static type of e.
func (a *analyzer) expr(e kpl.Expr, b *Block) (kpl.Type, error) {
	switch x := e.(type) {
	case *kpl.Const:
		return x.T, nil
	case *kpl.TIDExpr, *kpl.NTExpr:
		return kpl.I32, nil
	case *kpl.ParamExpr:
		p := a.k.Param(x.Name)
		if p == nil {
			return 0, fmt.Errorf("kir: %s: undeclared parameter %q", a.k.Name, x.Name)
		}
		return p.T, nil
	case *kpl.VarExpr:
		t, ok := a.vars[x.Name]
		if !ok {
			return 0, fmt.Errorf("kir: %s: variable %q used before assignment", a.k.Name, x.Name)
		}
		return t, nil
	case *kpl.BinExpr:
		ta, err := a.expr(x.A, b)
		if err != nil {
			return 0, err
		}
		tb, err := a.expr(x.B, b)
		if err != nil {
			return 0, err
		}
		t := kpl.Promote(ta, tb)
		switch {
		case x.Op.IsBitwise():
			b.Mu[arch.Bit]++
			return kpl.I32, nil
		case x.Op.IsCompare():
			b.Mu[classOf(t)]++
			return kpl.I32, nil
		default:
			b.Mu[classOf(t)]++
			return t, nil
		}
	case *kpl.UnExpr:
		ta, err := a.expr(x.A, b)
		if err != nil {
			return 0, err
		}
		if x.Op == kpl.OpNot {
			b.Mu[arch.Bit]++
			return kpl.I32, nil
		}
		t := ta
		if t == kpl.I32 && x.Op >= kpl.OpFloor {
			t = kpl.F32
		}
		b.Mu[classOf(t)] += float64(x.Op.IntrinsicCost())
		return t, nil
	case *kpl.LoadExpr:
		d := a.k.Buf(x.Buf)
		if d == nil {
			return 0, fmt.Errorf("kir: %s: undeclared buffer %q", a.k.Name, x.Buf)
		}
		if _, err := a.expr(x.Idx, b); err != nil {
			return 0, err
		}
		b.Mu[arch.Ld]++
		b.BufLd[x.Buf]++
		return d.Elem, nil
	case *kpl.CastExpr:
		if _, err := a.expr(x.A, b); err != nil {
			return 0, err
		}
		b.Mu[arch.Int]++
		return x.T, nil
	case *kpl.SelExpr:
		if _, err := a.expr(x.Cond, b); err != nil {
			return 0, err
		}
		ta, err := a.expr(x.A, b)
		if err != nil {
			return 0, err
		}
		tb, err := a.expr(x.B, b)
		if err != nil {
			return 0, err
		}
		b.Mu[arch.Int]++
		return kpl.Promote(ta, tb), nil
	default:
		return 0, fmt.Errorf("kir: %s: unknown expression %T", a.k.Name, e)
	}
}

func containsBreak(ss []kpl.Stmt) bool {
	for _, s := range ss {
		switch x := s.(type) {
		case *kpl.BreakStmt:
			return true
		case *kpl.IfStmt:
			if containsBreak(x.Then) || containsBreak(x.Else) {
				return true
			}
			// Breaks inside a nested For belong to that loop, not this one.
		}
	}
	return false
}
