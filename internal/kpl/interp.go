package kpl

import (
	"fmt"
	"sync"

	"repro/internal/arch"
)

// Env binds a kernel launch: scalar parameters, buffer arguments, and the
// launch width.
type Env struct {
	NThreads int
	Params   map[string]Value
	Bufs     map[string]*Buffer
}

// NewEnv returns an empty environment for n threads.
func NewEnv(n int) *Env {
	return &Env{NThreads: n, Params: map[string]Value{}, Bufs: map[string]*Buffer{}}
}

// SetInt binds an i32 parameter.
func (e *Env) SetInt(name string, v int64) *Env { e.Params[name] = IntVal(v); return e }

// SetF32 binds an f32 parameter.
func (e *Env) SetF32(name string, v float64) *Env { e.Params[name] = F32Val(v); return e }

// SetF64 binds an f64 parameter.
func (e *Env) SetF64(name string, v float64) *Env { e.Params[name] = F64Val(v); return e }

// Bind attaches a buffer argument.
func (e *Env) Bind(name string, b *Buffer) *Env { e.Bufs[name] = b; return e }

// Stats accumulates dynamic execution statistics across interpreted threads:
// exact per-class instruction counts (the Profiler's view) and per-loop trip
// counts (the λ measurements of Eq. 1).
type Stats struct {
	Instr   arch.ClassVec    // dynamic instruction count per class
	Trips   map[string]int64 // loop label → total iterations executed
	Entries map[string]int64 // loop label → number of loop entries
	BufLd   map[string]int64 // buffer name → dynamic load count
	BufSt   map[string]int64 // buffer name → dynamic store count
	Threads int              // threads contributing to the stats
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{
		Trips:   map[string]int64{},
		Entries: map[string]int64{},
		BufLd:   map[string]int64{},
		BufSt:   map[string]int64{},
	}
}

// ensureMaps replaces nil count maps with empty ones so that a zero-thread
// launch, an interpreted launch, and a compiled launch all leave behind the
// same empty-map (never nil-map) Stats shape. Zero-value Stats literals
// become usable everywhere NewStats results are.
func (s *Stats) ensureMaps() {
	if s.Trips == nil {
		s.Trips = map[string]int64{}
	}
	if s.Entries == nil {
		s.Entries = map[string]int64{}
	}
	if s.BufLd == nil {
		s.BufLd = map[string]int64{}
	}
	if s.BufSt == nil {
		s.BufSt = map[string]int64{}
	}
}

// PerThread returns the average per-thread instruction vector.
func (s *Stats) PerThread() arch.ClassVec {
	if s.Threads == 0 {
		return arch.ClassVec{}
	}
	return s.Instr.Scale(1 / float64(s.Threads))
}

// MeanTrips returns the average iteration count λ of the labelled loop per
// entry, or 0 when the loop never ran.
func (s *Stats) MeanTrips(label string) float64 {
	e := s.Entries[label]
	if e == 0 {
		return 0
	}
	return float64(s.Trips[label]) / float64(e)
}

// Error is the interpreter's failure type.
type Error struct {
	Kernel string
	TID    int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("kpl: kernel %q thread %d: %s", e.Kernel, e.TID, e.Msg)
}

type interpPanic struct{ msg string }

type interp struct {
	k    *Kernel
	env  *Env
	st   *Stats
	tid  int
	vars map[string]Value
}

func (in *interp) fail(format string, args ...any) {
	panic(interpPanic{fmt.Sprintf(format, args...)})
}

func (in *interp) count(c arch.InstrClass, n int) {
	if in.st != nil {
		in.st.Instr[c] += float64(n)
	}
}

// classOf maps a value type to the arithmetic instruction class.
func classOf(t Type) arch.InstrClass {
	switch t {
	case F32:
		return arch.FP32
	case F64:
		return arch.FP64
	default:
		return arch.Int
	}
}

func (in *interp) eval(e Expr) Value {
	switch x := e.(type) {
	case *Const:
		return Value{T: x.T, F: x.F, I: x.I}
	case *TIDExpr:
		return IntVal(int64(in.tid))
	case *NTExpr:
		return IntVal(int64(in.env.NThreads))
	case *ParamExpr:
		v, ok := in.env.Params[x.Name]
		if !ok {
			in.fail("unbound parameter %q", x.Name)
		}
		return v
	case *VarExpr:
		v, ok := in.vars[x.Name]
		if !ok {
			in.fail("undefined variable %q", x.Name)
		}
		return v
	case *BinExpr:
		a := in.eval(x.A)
		b := in.eval(x.B)
		switch {
		case x.Op.IsBitwise():
			in.count(arch.Bit, 1)
		case x.Op.IsCompare():
			in.count(classOf(Promote(a.T, b.T)), 1)
		default:
			in.count(classOf(Promote(a.T, b.T)), 1)
		}
		return binEval(x.Op, a, b)
	case *UnExpr:
		a := in.eval(x.A)
		if x.Op == OpNot {
			in.count(arch.Bit, 1)
		} else {
			t := a.T
			if t == I32 && x.Op >= OpFloor {
				t = F32
			}
			in.count(classOf(t), x.Op.IntrinsicCost())
		}
		return unEval(x.Op, a)
	case *LoadExpr:
		buf := in.env.Bufs[x.Buf]
		if buf == nil {
			in.fail("unbound buffer %q", x.Buf)
		}
		i := int(in.eval(x.Idx).Int())
		if i < 0 || i >= buf.Len() {
			in.fail("load %s[%d] out of range (len %d)", x.Buf, i, buf.Len())
		}
		in.count(arch.Ld, 1)
		if in.st != nil {
			in.st.BufLd[x.Buf]++
		}
		return buf.At(i)
	case *CastExpr:
		a := in.eval(x.A)
		in.count(arch.Int, 1) // cvt
		return a.Convert(x.T)
	case *SelExpr:
		c := in.eval(x.Cond)
		a := in.eval(x.A)
		b := in.eval(x.B)
		in.count(arch.Int, 1) // predicated select
		if c.Bool() {
			return a
		}
		return b
	}
	in.fail("unknown expression %T", e)
	panic("unreachable")
}

// brk is the sentinel returned by exec when a BreakStmt fires.
type ctl uint8

const (
	ctlNone ctl = iota
	ctlBreak
)

func (in *interp) exec(stmts []Stmt) ctl {
	for _, s := range stmts {
		switch x := s.(type) {
		case *LetStmt:
			in.vars[x.Name] = in.eval(x.E)
		case *StoreStmt:
			buf := in.env.Bufs[x.Buf]
			if buf == nil {
				in.fail("unbound buffer %q", x.Buf)
			}
			i := int(in.eval(x.Idx).Int())
			if i < 0 || i >= buf.Len() {
				in.fail("store %s[%d] out of range (len %d)", x.Buf, i, buf.Len())
			}
			v := in.eval(x.Val)
			in.count(arch.St, 1)
			if in.st != nil {
				in.st.BufSt[x.Buf]++
			}
			buf.Set(i, v)
		case *AtomicAddStmt:
			buf := in.env.Bufs[x.Buf]
			if buf == nil {
				in.fail("unbound buffer %q", x.Buf)
			}
			i := int(in.eval(x.Idx).Int())
			if i < 0 || i >= buf.Len() {
				in.fail("atomic %s[%d] out of range (len %d)", x.Buf, i, buf.Len())
			}
			v := in.eval(x.Val)
			in.count(arch.Ld, 1)
			in.count(arch.St, 1)
			if in.st != nil {
				in.st.BufLd[x.Buf]++
				in.st.BufSt[x.Buf]++
			}
			buf.AddAt(i, v)
		case *ForStmt:
			start := in.eval(x.Start).Int()
			end := in.eval(x.End).Int()
			if in.st != nil && end > start {
				in.st.Entries[x.Label]++
			}
			for i := start; i < end; i++ {
				in.vars[x.Var] = IntVal(i)
				// Loop bookkeeping: increment + compare + backward branch.
				in.count(arch.Int, 2)
				in.count(arch.Branch, 1)
				if in.st != nil {
					in.st.Trips[x.Label]++
				}
				if in.exec(x.Body) == ctlBreak {
					break
				}
			}
		case *IfStmt:
			c := in.eval(x.Cond)
			in.count(arch.Branch, 1)
			if c.Bool() {
				if in.exec(x.Then) == ctlBreak {
					return ctlBreak
				}
			} else if len(x.Else) > 0 {
				if in.exec(x.Else) == ctlBreak {
					return ctlBreak
				}
			}
		case *BreakStmt:
			in.count(arch.Branch, 1)
			return ctlBreak
		default:
			in.fail("unknown statement %T", s)
		}
	}
	return ctlNone
}

// interpPool recycles interpreter states — including their variable maps —
// across threads, launches and worker goroutines. Without it every thread of
// every launch allocates a fresh interp plus a vars map, and that churn
// dominates block-parallel interpretation.
var interpPool = sync.Pool{
	New: func() any { return &interp{vars: make(map[string]Value, 8)} },
}

// runThread interprets one thread on an already-configured interpreter,
// converting interpreter panics into errors. Variables are cleared so the
// thread starts fresh, as GPU semantics require.
func (in *interp) runThread(tid int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(interpPanic); ok {
				err = &Error{Kernel: in.k.Name, TID: tid, Msg: p.msg}
				return
			}
			panic(r)
		}
	}()
	in.tid = tid
	clear(in.vars)
	in.exec(in.k.Body)
	return nil
}

// ExecThread executes one thread of the kernel. Statistics are accumulated
// into st when non-nil.
func (k *Kernel) ExecThread(tid int, env *Env, st *Stats) error {
	return k.ExecRange(tid, tid+1, env, st)
}

// ExecRange executes threads [lo, hi) in thread-index order. Kernels the
// compiler covers run on the cached typed Program (see compile.go), unless
// the launch's bindings contradict the declared types; anything else runs on
// the interpreter. Both engines produce bit-identical buffers, statistics,
// and errors, so callers cannot tell which one ran.
func (k *Kernel) ExecRange(lo, hi int, env *Env, st *Stats) error {
	return k.execStride(k.resolveProgram(), lo, hi, 1, env, st)
}

// ExecAll executes every thread of the launch sequentially, in thread-index
// order — exactly what a software GPU emulator does.
func (k *Kernel) ExecAll(env *Env, st *Stats) error {
	return k.ExecRange(0, env.NThreads, env, st)
}

// InterpretRange interprets threads [lo, hi) in thread-index order on the
// tree-walking interpreter. Statistics are accumulated into st when non-nil.
// This is the reference engine: the compiled path must match it bit for bit.
func (k *Kernel) InterpretRange(lo, hi int, env *Env, st *Stats) error {
	return k.interpretStride(lo, hi, 1, env, st)
}

// interpretStride interprets threads lo, lo+step, … below hi, reusing one
// pooled interpreter state for the whole call.
func (k *Kernel) interpretStride(lo, hi, step int, env *Env, st *Stats) error {
	if st != nil {
		st.ensureMaps()
	}
	in := interpPool.Get().(*interp)
	in.k, in.env, in.st = k, env, st
	defer func() {
		in.k, in.env, in.st = nil, nil, nil
		interpPool.Put(in)
	}()
	for tid := lo; tid < hi; tid += step {
		if err := in.runThread(tid); err != nil {
			return err
		}
		if st != nil {
			st.Threads++
		}
	}
	return nil
}

// InterpretAll interprets every thread of the launch sequentially on the
// tree-walking interpreter, bypassing the compiled engine.
func (k *Kernel) InterpretAll(env *Env, st *Stats) error {
	return k.InterpretRange(0, env.NThreads, env, st)
}

// SampleStats executes up to sample threads spread evenly across the launch
// against scratch copies of the writable buffers, returning the measured
// statistics scaled to the full launch. This is the paper's
// dynamic-instrumentation path for λ measurement (footnote 2: <0.5% overhead),
// used when σ must be known without paying a full execution. The whole sample
// runs over one resolved program and one bound frame.
func (k *Kernel) SampleStats(env *Env, sample int) (*Stats, error) {
	if sample <= 0 {
		sample = 32
	}
	if sample > env.NThreads {
		sample = env.NThreads
	}
	st := NewStats()
	if sample <= 0 {
		return st, nil
	}
	scratch := &Env{NThreads: env.NThreads, Params: env.Params, Bufs: make(map[string]*Buffer, len(env.Bufs))}
	for name, b := range env.Bufs {
		if decl := k.Buf(name); decl != nil && decl.ReadOnly {
			scratch.Bufs[name] = b // never written (enforced by Validate)
		} else {
			scratch.Bufs[name] = cloneBuffer(b)
		}
	}
	step := env.NThreads / sample // ≥ 1, so the sample threads are 0, step, … (sample-1)·step
	if err := k.execStride(k.resolveProgram(), 0, sample*step, step, scratch, st); err != nil {
		return nil, err
	}
	// Scale dynamic counts from the sample to the full launch.
	scale := float64(env.NThreads) / float64(sample)
	st.Instr = st.Instr.Scale(scale)
	for l := range st.Trips {
		st.Trips[l] = int64(float64(st.Trips[l]) * scale)
	}
	for l := range st.Entries {
		st.Entries[l] = int64(float64(st.Entries[l]) * scale)
	}
	for b := range st.BufLd {
		st.BufLd[b] = int64(float64(st.BufLd[b]) * scale)
	}
	for b := range st.BufSt {
		st.BufSt[b] = int64(float64(st.BufSt[b]) * scale)
	}
	st.Threads = env.NThreads
	return st, nil
}

func cloneBuffer(b *Buffer) *Buffer {
	c := &Buffer{Elem: b.Elem}
	c.F32s = append([]float32(nil), b.F32s...)
	c.F64s = append([]float64(nil), b.F64s...)
	c.I32s = append([]int32(nil), b.I32s...)
	return c
}
