package kplgen

import (
	"math"
	"slices"

	"repro/internal/kpl"
)

// Encode maps a kernel and thread count into the byte format Decode reads,
// mirroring Decode's read order exactly. It is lossy by design: identifiers
// are renamed into the generator's namespace, declarations and blocks beyond
// the generator's limits are truncated, expressions deeper than the
// generator's depth budget collapse to constants, and loop bounds are
// re-clamped on decode. The result always decodes to a valid kernel whose
// shape resembles the input — exactly what a fuzz corpus seed needs.
func Encode(k *kpl.Kernel, nThreads int) []byte {
	e := &encoder{
		vars:    map[string]int{},
		params:  map[string]int{},
		defined: map[string]int{},
	}

	np := len(k.Params)
	if np > maxParams {
		np = maxParams
	}
	e.emit(byte(np))
	for i := 0; i < np; i++ {
		e.params[k.Params[i].Name] = i
		e.emit(byte(k.Params[i].T))
	}
	e.np = np

	nb := len(k.Bufs)
	if nb > maxBufs {
		nb = maxBufs
	}
	if nb < 1 {
		nb = 1
	}
	e.emit(byte(nb - 1))
	e.bufs = map[string]int{}
	e.writable = map[string]int{}
	for i := 0; i < nb; i++ {
		var decl kpl.BufDecl
		if i < len(k.Bufs) {
			decl = k.Bufs[i]
		}
		e.bufs[decl.Name] = i
		ro := decl.ReadOnly && i > 0 // decode forces buffer 0 writable
		if i > 0 {
			if ro {
				e.emit(0)
			} else {
				e.emit(1)
			}
		}
		e.emit(byte(decl.Elem))
		if !ro {
			e.writable[decl.Name] = len(e.writable)
		}
	}
	e.nb = nb

	e.block(k.Body, 6, 2, 0)

	// Environment: thread count, then bind every parameter and buffer.
	nt := nThreads
	if nt < 1 {
		nt = 1
	}
	if nt > maxThreads {
		nt = maxThreads
	}
	e.emit(byte(nt - 1))
	for i := 0; i < np; i++ {
		e.emit(0) // bound
		e.emit(4) // value: i32 4 / float 1.0
	}
	for i := 0; i < nb; i++ {
		e.emit(0)              // bound
		e.emit(16)             // length 16
		e.emit(byte(i*37 + 1)) // fill seed
	}
	return e.out
}

type encoder struct {
	out      []byte
	vars     map[string]int
	params   map[string]int
	bufs     map[string]int
	writable map[string]int
	np, nb   int

	// defined mirrors the decoder's assigned-variable list: names are marked
	// and scoped in the same traversal order (after a let's value, after a
	// loop's bounds, restored on loop/branch exit), so a defined-variable
	// read encodes to a position the decoder resolves back to
	// (approximately) the same variable.
	defined     map[string]int
	definedList []string
}

func (e *encoder) emit(b byte) { e.out = append(e.out, b) }

func (e *encoder) markDefined(name string) {
	if _, ok := e.defined[name]; !ok {
		e.defined[name] = len(e.definedList)
		e.definedList = append(e.definedList, name)
	}
}

func (e *encoder) snapshot() int { return len(e.definedList) }

func (e *encoder) restore(n int) {
	for _, name := range e.definedList[n:] {
		delete(e.defined, name)
	}
	e.definedList = e.definedList[:n]
}

func (e *encoder) varByte(name string) byte {
	idx, ok := e.vars[name]
	if !ok {
		idx = len(e.vars)
		e.vars[name] = idx
	}
	return byte(idx % maxVars)
}

// block emits a statement-count byte (capped at max) followed by the first
// count statements.
func (e *encoder) block(ss []kpl.Stmt, max, depth, loopDepth int) {
	n := len(ss)
	if n > max {
		n = max
	}
	if n < 1 {
		// Decode always reads at least one statement per block.
		e.emit(0)
		e.letZero()
		return
	}
	e.emit(byte(n - 1))
	for i := 0; i < n; i++ {
		e.stmt(ss[i], depth, loopDepth)
	}
}

// letZero emits the placeholder statement `let v0 = 0`.
func (e *encoder) letZero() {
	e.emit(0) // tag: let
	e.emit(0) // var v0
	e.constZero()
	e.markDefined("v0") // the decoder will mark its v0 here
}

func (e *encoder) constZero() {
	e.emit(0) // tag: const
	e.emit(0) // type i32
	e.emit(0) // payload
}

func (e *encoder) stmt(s kpl.Stmt, depth, loopDepth int) {
	switch x := s.(type) {
	case *kpl.LetStmt:
		e.emit(0)
		e.emit(e.varByte(x.Name))
		e.expr(x.E, depth+1)
		e.markDefined(x.Name)
	case *kpl.StoreStmt:
		e.emit(1)
		e.emit(e.writableByte(x.Buf))
		e.expr(x.Idx, depth+1)
		e.expr(x.Val, depth+1)
	case *kpl.AtomicAddStmt:
		e.emit(2)
		e.emit(e.writableByte(x.Buf))
		e.expr(x.Idx, depth+1)
		e.expr(x.Val, depth+1)
	case *kpl.ForStmt:
		if depth <= 0 {
			e.letZero() // decode cannot nest here
			return
		}
		e.emit(3)
		e.emit(e.varByte(x.Var))
		e.expr(unclamp(x.Start), depth)
		e.expr(unclamp(x.End), depth)
		snap := e.snapshot()
		e.markDefined(x.Var)
		e.block(x.Body, 3, depth-1, loopDepth+1)
		e.restore(snap)
	case *kpl.IfStmt:
		if depth <= 0 {
			e.letZero()
			return
		}
		e.emit(4)
		e.expr(x.Cond, depth)
		snap := e.snapshot()
		e.block(x.Then, 3, depth-1, loopDepth)
		e.restore(snap)
		if len(x.Else) > 0 {
			e.emit(1)
			e.block(x.Else, 2, depth-1, loopDepth)
			e.restore(snap)
		} else {
			e.emit(0)
		}
	case *kpl.BreakStmt:
		if loopDepth <= 0 {
			e.letZero()
			return
		}
		e.emit(5)
	default:
		e.letZero()
	}
}

func (e *encoder) writableByte(name string) byte {
	if len(e.writable) == 0 {
		return 0
	}
	return byte(e.writable[name] % len(e.writable))
}

// unclamp strips the Mod(Cast(I32, ·), loopClamp) wrapper Decode adds around
// loop bounds, so re-encoding a decoded kernel does not stack clamps.
func unclamp(ex kpl.Expr) kpl.Expr {
	if b, ok := ex.(*kpl.BinExpr); ok && b.Op == kpl.OpMod {
		if c, ok := b.B.(*kpl.Const); ok && c.T == kpl.I32 && c.I == loopClamp {
			if cast, ok := b.A.(*kpl.CastExpr); ok && cast.T == kpl.I32 {
				return cast.A
			}
			return b.A
		}
	}
	return ex
}

// scalar emits a value as cursor.scalar reads one: an entry of the type's
// edge table by its index, anything else narrowed to the small range.
func (e *encoder) scalar(t kpl.Type, i int64, f float64) {
	idx := -1
	if t == kpl.I32 {
		idx = slices.Index(edgeInts, i)
	} else {
		idx = slices.Index(edgeF64s, math.Float64bits(f))
		i = int64(f * 4)
	}
	if idx >= 0 {
		e.emit(escape + 256) // the byte that reads as escape
		e.emit(byte(idx))
		return
	}
	e.emit(clampI8(i))
}

// clampI8 narrows a scalar to the byte Decode reads one from, short of the
// escape.
func clampI8(v int64) byte {
	if v <= escape {
		v = escape + 1
	}
	if v > 127 {
		v = 127
	}
	return byte(int8(v))
}

func (e *encoder) expr(ex kpl.Expr, depth int) {
	if depth <= 0 {
		// Decode only accepts leaves here; collapse anything deeper.
		switch ex.(type) {
		case *kpl.Const, *kpl.TIDExpr, *kpl.NTExpr, *kpl.ParamExpr, *kpl.VarExpr:
		default:
			e.constZero()
			return
		}
	}
	switch x := ex.(type) {
	case *kpl.Const:
		e.emit(0)
		e.emit(byte(x.T))
		e.scalar(x.T, x.I, x.F)
	case *kpl.TIDExpr:
		e.emit(1)
	case *kpl.NTExpr:
		e.emit(2)
	case *kpl.ParamExpr:
		e.emit(3)
		if e.np > 0 {
			e.emit(byte(e.params[x.Name] % e.np))
		}
	case *kpl.VarExpr:
		e.emit(4)
		if pos, ok := e.defined[x.Name]; ok {
			e.emit(byte(pos * 8)) // pos*8 % 8 == 0: decoder reads defined[pos]
		} else {
			e.emit(7) // the decoder's arbitrary name: a (likely) unassigned read
		}
	case *kpl.BinExpr:
		e.emit(5)
		e.emit(byte(x.Op))
		e.expr(x.A, depth-1)
		e.expr(x.B, depth-1)
	case *kpl.UnExpr:
		e.emit(6)
		e.emit(byte(x.Op))
		e.expr(x.A, depth-1)
	case *kpl.LoadExpr:
		e.emit(7)
		e.emit(byte(e.bufs[x.Buf] % e.nb))
		e.expr(x.Idx, depth-1)
	case *kpl.CastExpr:
		e.emit(8)
		e.emit(byte(x.T))
		e.expr(x.A, depth-1)
	case *kpl.SelExpr:
		e.emit(9)
		a, b := x.A, x.B
		ca, okA := a.(*kpl.CastExpr)
		cb, okB := b.(*kpl.CastExpr)
		if okA && okB && ca.T == cb.T && ca.T <= kpl.F64 {
			e.emit(byte(ca.T)) // mode: the decoder re-wraps both arms in this cast
			a, b = ca.A, cb.A
		} else {
			e.emit(selRaw)
		}
		e.expr(x.Cond, depth-1)
		e.expr(a, depth-1)
		e.expr(b, depth-1)
	default:
		e.constZero()
	}
}
