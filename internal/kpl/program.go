package kpl

// The compiled execution engine. A Program runs against a frame: a pooled,
// per-ExecRange register file plus dense per-slot statistics arrays. The hot
// loop is string-free — register and slot indices only — and allocation-free
// in steady state; the map-keyed Stats view the rest of the system consumes
// is produced by a single fold at the end of each ExecRange call. Every
// counter is an integer, so folding totals instead of incrementing per
// instruction yields bit-identical float64 accumulations.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arch"
)

// frame is the mutable state of one compiled ExecRange call: the register
// file shared by consecutive threads (safe because compilation proves every
// register is written before read within a thread) and the dense statistics
// slots. Frames are pooled; getFrame re-sizes and zeroes them per call.
type frame struct {
	regs []Value

	icount  [arch.NumClasses]int64
	trips   []int64
	entries []int64
	bufLd   []int64
	bufSt   []int64

	params  []Value
	paramOK []bool
	bufs    []*Buffer
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func resetInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getFrame acquires a pooled frame sized for the program and resolves the
// launch bindings: parameter slots and buffer slots become array lookups for
// the duration of the call. Missing bindings are recorded, not rejected —
// the interpreter only fails when an unbound name is dynamically reached,
// and the compiled engine must fail at exactly the same point.
func (p *Program) getFrame(env *Env) *frame {
	fr := framePool.Get().(*frame)
	if cap(fr.regs) < p.nRegs {
		fr.regs = make([]Value, p.nRegs)
	} else {
		fr.regs = fr.regs[:p.nRegs]
	}
	fr.icount = [arch.NumClasses]int64{}
	fr.trips = resetInt64(fr.trips, len(p.loopLabels))
	fr.entries = resetInt64(fr.entries, len(p.loopLabels))
	fr.bufLd = resetInt64(fr.bufLd, len(p.bufNames))
	fr.bufSt = resetInt64(fr.bufSt, len(p.bufNames))

	np := len(p.paramNames)
	if cap(fr.params) < np {
		fr.params = make([]Value, np)
		fr.paramOK = make([]bool, np)
	} else {
		fr.params = fr.params[:np]
		fr.paramOK = fr.paramOK[:np]
	}
	for i, name := range p.paramNames {
		v, ok := env.Params[name]
		fr.params[i], fr.paramOK[i] = v, ok
	}

	nb := len(p.bufNames)
	if cap(fr.bufs) < nb {
		fr.bufs = make([]*Buffer, nb)
	} else {
		fr.bufs = fr.bufs[:nb]
	}
	for i, name := range p.bufNames {
		fr.bufs[i] = env.Bufs[name]
	}
	return fr
}

func putFrame(fr *frame) {
	for i := range fr.bufs {
		fr.bufs[i] = nil // do not pin launch buffers in the pool
	}
	framePool.Put(fr)
}

// fold merges the frame's dense counters into the map-keyed Stats. Slots
// with zero counts create no map keys, exactly like the interpreter's
// increment-on-first-touch behaviour.
func (fr *frame) fold(p *Program, st *Stats) {
	for c, n := range fr.icount {
		if n != 0 {
			st.Instr[c] += float64(n)
		}
	}
	for i, n := range fr.trips {
		if n != 0 {
			st.Trips[p.loopLabels[i]] += n
		}
	}
	for i, n := range fr.entries {
		if n != 0 {
			st.Entries[p.loopLabels[i]] += n
		}
	}
	for i, n := range fr.bufLd {
		if n != 0 {
			st.BufLd[p.bufNames[i]] += n
		}
	}
	for i, n := range fr.bufSt {
		if n != 0 {
			st.BufSt[p.bufNames[i]] += n
		}
	}
}

func (p *Program) errf(tid int, format string, args ...any) error {
	return &Error{Kernel: p.kernelName, TID: tid, Msg: fmt.Sprintf(format, args...)}
}

// ExecAll executes every thread of the launch through the compiled engine.
func (p *Program) ExecAll(env *Env, st *Stats) error {
	return p.ExecRange(0, env.NThreads, env, st)
}

// ExecRange executes threads [lo, hi) in thread-index order. Statistics are
// folded into st (when non-nil) once at the end — including the partial
// counts of a failing thread, matching the interpreter's incremental
// accounting at the point it stops.
func (p *Program) ExecRange(lo, hi int, env *Env, st *Stats) error {
	if st != nil {
		st.ensureMaps()
	}
	fr := p.getFrame(env)
	var err error
	threads := 0
	for tid := lo; tid < hi; tid++ {
		if err = p.run(fr, tid, env.NThreads); err != nil {
			break
		}
		threads++
	}
	if st != nil {
		fr.fold(p, st)
		st.Threads += threads
	}
	putFrame(fr)
	return err
}

// run executes one thread. Semantics — evaluation order, statistics classes,
// quiet-divide behaviour, error text — mirror interp.go exactly; binEval and
// unEval are shared with the interpreter so scalar arithmetic is identical
// by construction.
func (p *Program) run(fr *frame, tid, nThreads int) error {
	code := p.code
	regs := fr.regs
	pc := 0
	for {
		ins := &code[pc]
		switch ins.op {
		case opConst:
			regs[ins.dst] = ins.imm

		case opTID:
			regs[ins.dst] = Value{T: I32, I: int64(tid)}

		case opNT:
			regs[ins.dst] = Value{T: I32, I: int64(nThreads)}

		case opParam:
			if !fr.paramOK[ins.a] {
				return p.errf(tid, "unbound parameter %q", p.paramNames[ins.a])
			}
			regs[ins.dst] = fr.params[ins.a]

		case opMove:
			regs[ins.dst] = regs[ins.a]

		case opBin:
			a, b := regs[ins.a], regs[ins.b]
			op := BinOp(ins.sub)
			if op.IsBitwise() {
				fr.icount[arch.Bit]++
			} else {
				fr.icount[classOf(Promote(a.T, b.T))]++
			}
			regs[ins.dst] = binEval(op, a, b)

		case opUn:
			a := regs[ins.a]
			op := UnOp(ins.sub)
			if op == OpNot {
				fr.icount[arch.Bit]++
			} else {
				t := a.T
				if t == I32 && op >= OpFloor {
					t = F32
				}
				fr.icount[classOf(t)] += int64(ins.c)
			}
			regs[ins.dst] = unEval(op, a)

		case opCast:
			fr.icount[arch.Int]++ // cvt
			regs[ins.dst] = regs[ins.a].Convert(Type(ins.sub))

		case opSel:
			fr.icount[arch.Int]++ // predicated select
			if regs[ins.a].Bool() {
				regs[ins.dst] = regs[ins.b]
			} else {
				regs[ins.dst] = regs[ins.c]
			}

		case opBufChk:
			if fr.bufs[ins.b] == nil {
				return p.errf(tid, "unbound buffer %q", p.bufNames[ins.b])
			}

		case opLoad:
			buf := fr.bufs[ins.b]
			i := int(regs[ins.a].Int())
			if i < 0 || i >= buf.Len() {
				return p.errf(tid, "load %s[%d] out of range (len %d)", p.bufNames[ins.b], i, buf.Len())
			}
			fr.icount[arch.Ld]++
			fr.bufLd[ins.b]++
			regs[ins.dst] = buf.At(i)

		case opStoreChk:
			buf := fr.bufs[ins.b]
			i := int(regs[ins.a].Int())
			if i < 0 || i >= buf.Len() {
				return p.errf(tid, "store %s[%d] out of range (len %d)", p.bufNames[ins.b], i, buf.Len())
			}

		case opStore:
			buf := fr.bufs[ins.b]
			fr.icount[arch.St]++
			fr.bufSt[ins.b]++
			buf.Set(int(regs[ins.a].Int()), regs[ins.c])

		case opAtomicChk:
			buf := fr.bufs[ins.b]
			i := int(regs[ins.a].Int())
			if i < 0 || i >= buf.Len() {
				return p.errf(tid, "atomic %s[%d] out of range (len %d)", p.bufNames[ins.b], i, buf.Len())
			}

		case opAtomic:
			buf := fr.bufs[ins.b]
			fr.icount[arch.Ld]++
			fr.icount[arch.St]++
			fr.bufLd[ins.b]++
			fr.bufSt[ins.b]++
			buf.AddAt(int(regs[ins.a].Int()), regs[ins.c])

		case opJump:
			pc = int(ins.c)
			continue

		case opJz:
			fr.icount[arch.Branch]++
			if !regs[ins.a].Bool() {
				pc = int(ins.c)
				continue
			}

		case opForInit:
			start, end := regs[ins.a].Int(), regs[ins.b].Int()
			regs[ins.dst] = Value{T: I32, I: start}
			regs[ins.dst+1] = Value{T: I32, I: end}
			if end > start {
				fr.entries[ins.imm.I]++
			} else {
				pc = int(ins.c)
				continue
			}

		case opForHead:
			// Loop bookkeeping per iteration: increment + compare + backward
			// branch, plus the trip count — before the body, like the
			// interpreter.
			cur := regs[ins.a].I
			regs[ins.dst] = Value{T: I32, I: cur}
			fr.icount[arch.Int] += 2
			fr.icount[arch.Branch]++
			fr.trips[ins.imm.I]++

		case opForNext:
			cur := regs[ins.a].I + 1
			regs[ins.a].I = cur
			if cur < regs[ins.a+1].I {
				pc = int(ins.c)
				continue
			}

		case opBreak:
			fr.icount[arch.Branch]++
			pc = int(ins.c)
			continue

		case opHalt:
			return nil
		}
		pc++
	}
}

// The shared program cache. Compiled programs are memoized by the kernel's
// structural key (Kernel.Signature extended with loop labels), so every
// backend — hostgpu, emul, the coalescer — shares one compilation per
// distinct kernel structure, and a kernel whose body is rebuilt after
// registration (kernels.reanalyze) re-compiles automatically because its key
// changes. Uncompilable kernels are memoized too (nil entry) so the
// interpreter fallback stays O(1).
var progCache sync.Map // uint64 → *progEntry

type progEntry struct{ p *Program }

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

// progHash is an allocation-free FNV-1a structural hasher. Both kernel keys
// are recomputed on every launch — resolveProgram's, so that a rebuilt body
// re-compiles, and Signature, which the timing cache and the coalescer's
// Kernel Match key launches by — so the walk must not allocate.
type progHash struct {
	h uint64
	// labels includes loop labels in the hash (progKey); Signature leaves
	// them out.
	labels bool
}

func (w *progHash) b(p byte) { w.h = (w.h ^ uint64(p)) * 1099511628211 }

func (w *progHash) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		w.b(byte(v >> i))
	}
}

func (w *progHash) str(s string) {
	for i := 0; i < len(s); i++ {
		w.b(s[i])
	}
	w.b(0xff) // terminator: "ab","c" must not collide with "a","bc"
}

func (w *progHash) expr(e Expr) {
	switch x := e.(type) {
	case *Const:
		w.b(1)
		w.b(byte(x.T))
		w.u64(uint64(x.I))
		w.u64(math.Float64bits(x.F))
	case *TIDExpr:
		w.b(2)
	case *NTExpr:
		w.b(3)
	case *ParamExpr:
		w.b(4)
		w.str(x.Name)
	case *VarExpr:
		w.b(5)
		w.str(x.Name)
	case *BinExpr:
		w.b(6)
		w.b(byte(x.Op))
		w.expr(x.A)
		w.expr(x.B)
	case *UnExpr:
		w.b(7)
		w.b(byte(x.Op))
		w.expr(x.A)
	case *LoadExpr:
		w.b(8)
		w.str(x.Buf)
		w.expr(x.Idx)
	case *CastExpr:
		w.b(9)
		w.b(byte(x.T))
		w.expr(x.A)
	case *SelExpr:
		w.b(10)
		w.expr(x.Cond)
		w.expr(x.A)
		w.expr(x.B)
	default:
		w.b(255) // unknown node: compiles to a fallback entry
	}
}

func (w *progHash) stmts(ss []Stmt) {
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			w.b(20)
			w.str(x.Name)
			w.expr(x.E)
		case *StoreStmt:
			w.b(21)
			w.str(x.Buf)
			w.expr(x.Idx)
			w.expr(x.Val)
		case *AtomicAddStmt:
			w.b(22)
			w.str(x.Buf)
			w.expr(x.Idx)
			w.expr(x.Val)
		case *ForStmt:
			w.b(23)
			if w.labels {
				w.str(x.Label)
			}
			w.str(x.Var)
			w.expr(x.Start)
			w.expr(x.End)
			w.stmts(x.Body)
			w.b(24)
		case *IfStmt:
			w.b(25)
			w.expr(x.Cond)
			w.stmts(x.Then)
			w.b(26)
			w.stmts(x.Else)
			w.b(27)
		case *BreakStmt:
			w.b(28)
		default:
			w.b(254)
		}
	}
	w.b(0)
}

// structKey hashes the kernel's name, declarations and body. Buffer
// declarations are hashed one by one and summed, so their order does not
// matter; Stride and L2Fraction, which only the cache model reads, are left
// out.
func (k *Kernel) structKey(labels bool) uint64 {
	w := &progHash{h: fnvOffset, labels: labels}
	w.str(k.Name)
	var bufs uint64
	for i := range k.Bufs {
		b := &k.Bufs[i]
		d := progHash{h: fnvOffset}
		d.str(b.Name)
		d.b(byte(b.Elem))
		d.b(byte(b.Access))
		if b.ReadOnly {
			d.b(1)
		} else {
			d.b(0)
		}
		bufs += d.h
	}
	w.u64(bufs)
	for i := range k.Params {
		w.str(k.Params[i].Name)
		w.b(byte(k.Params[i].T))
	}
	w.b(0)
	w.stmts(k.Body)
	return w.h
}

// Signature returns a stable structural fingerprint of the kernel. The
// Re-scheduler's Kernel Match stage (paper Fig. 2) uses it to decide whether
// requests from different VPs invoke the *identical* kernel and are therefore
// eligible for Kernel Coalescing, and the launch timing cache keys on it.
// Loop labels and the order of buffer declarations do not affect it.
//
// The value is only ever compared within one process: it appears in no wire
// frame, checkpoint image or metrics output, so its definition may change
// between builds.
func (k *Kernel) Signature() uint64 { return k.structKey(false) }

// progKey returns the structural cache key of the kernel: Signature extended
// with loop labels, which compiled programs bake in as Stats fold keys, so
// two kernels differing only in labels must not share a cache entry.
func (k *Kernel) progKey() uint64 { return k.structKey(true) }

// resolveProgram returns the memoized compiled program for the kernel, or
// nil when the kernel is not compilable and must be interpreted.
func (k *Kernel) resolveProgram() *Program {
	sig := k.progKey()
	if v, ok := progCache.Load(sig); ok {
		return v.(*progEntry).p
	}
	p, err := Compile(k)
	if err != nil {
		p = nil
	}
	progCache.Store(sig, &progEntry{p: p})
	return p
}

// execRange runs threads [lo, hi) on the compiled program when available and
// on the interpreter otherwise.
func (k *Kernel) execRange(p *Program, lo, hi int, env *Env, st *Stats) error {
	if p != nil {
		return p.ExecRange(lo, hi, env, st)
	}
	return k.InterpretRange(lo, hi, env, st)
}
