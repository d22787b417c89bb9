package kpl

// The compiled execution engine. A Program runs against a frame: one pooled,
// cache-line-isolated block holding the 256-word register file and the
// control-flow edge counters, plus the launch's bindings resolved once —
// scalar parameters and the prologue's launch-invariant results as register
// contents, buffers as typed slice headers per slot. The per-thread loop is
// typed arithmetic on 8-byte registers — an i32 as int64, an f64 as float64
// bits, an f32 as float32 bits — and nothing else: no type tags, no maps, no
// strings, no per-instruction counter. The map-keyed Stats view the rest of
// the system consumes is
// produced by a single fold at the end of each call, which multiplies every
// segment's static tally by the number of times the segment was entered.
// Every counter is an integer, so folding totals instead of incrementing per
// instruction yields bit-identical float64 accumulations.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arch"
)

// linePad is one 64-byte cache line. A frame begins and ends with one, so
// that whatever the allocator places next to it, no line written by one
// worker's thread loop is shared with another's.
type linePad [8]uint64

// boundBuf is one buffer slot resolved for a launch: the backing slice
// matching the declared element type, and the block-parallel engine's shadow
// write tracking when armed.
type boundBuf struct {
	f32     []float32
	f64     []float64
	i32     []int32
	written []bool
	n       int
}

// frame is the mutable state of one compiled call: one contiguous,
// line-padded block. The register file is shared by consecutive threads (safe
// because compilation proves every register is written before read within a
// thread). Frames are pooled; bind re-fills them per call.
type frame struct {
	_    linePad
	regs [nRegs]uint64
	cnt  [nRegs]uint64 // by edge: times taken

	// The thread loop, kept here rather than in exec's locals so that the
	// instruction loop's own state fits the machine's registers: the thread
	// running, the bound, the stride, and the threads completed.
	tid, hi, step, done int

	bufs  []boundBuf
	loops []loopSlot // the program's
	tot   []uint64   // fold scratch: loads then stores, per buffer slot
	_     linePad
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// bind acquires a pooled frame and resolves the launch's bindings into it:
// constants and parameters become register contents, the prologue computes
// the launch-invariant expressions from them, buffers become typed slice
// headers. It returns nil when the bindings contradict what the program was
// compiled against — an unbound name, a Value or a Buffer of another type, an
// f32 Value that float32 does not hold exactly — and the launch must run on
// the interpreter, which raises the error (if the name is ever reached) at
// the exact dynamic point.
func (p *Program) bind(env *Env) *frame {
	fr := framePool.Get().(*frame)
	fr.loops = p.loops

	fr.regs[regNT] = uint64(env.NThreads)
	for i, w := range p.pool {
		fr.regs[nRegs-1-i] = w
	}
	for _, ps := range p.params {
		v, ok := env.Params[ps.name]
		if !ok || v.T != ps.t {
			putFrame(fr)
			return nil
		}
		switch ps.t {
		case I32:
			fr.regs[ps.reg] = uint64(v.I)
		case F32:
			if fr.regs[ps.reg], ok = f32Word(v.F); !ok {
				putFrame(fr)
				return nil
			}
		default:
			fr.regs[ps.reg] = wf(v.F)
		}
	}
	if p.pro != nil {
		// One pass of the same loop: no memory access, so no fault.
		fr.tid, fr.hi, fr.step = 0, 1, 1
		exec(p.pro, fr)
	}
	clear(fr.cnt[:p.nEdges])

	nb := len(p.bufs)
	if cap(fr.bufs) < nb {
		fr.bufs = make([]boundBuf, nb)
		fr.tot = make([]uint64, 2*nb)
	}
	fr.bufs, fr.tot = fr.bufs[:nb], fr.tot[:2*nb]
	for i, bs := range p.bufs {
		b := env.Bufs[bs.name]
		if b == nil || b.Elem != bs.elem {
			putFrame(fr)
			return nil
		}
		fr.bufs[i] = boundBuf{f32: b.F32s, f64: b.F64s, i32: b.I32s, written: b.written, n: b.Len()}
	}
	return fr
}

func putFrame(fr *frame) {
	clear(fr.bufs) // do not pin launch buffers in the pool
	framePool.Put(fr)
}

// fold merges the frame's counters into the map-keyed Stats: each segment's
// tally times its entries. Slots with zero counts create no map keys, exactly
// like the interpreter's increment-on-first-touch behaviour. faultPC is the
// pc a thread stopped at, or -1: that one entry of its segment executed only
// the instructions before faultPC and the keep part of the one at faultPC,
// and did not run on into the next segment.
func (fr *frame) fold(p *Program, st *Stats, faultPC int) {
	clear(fr.tot)
	ld, sto := fr.tot[:len(p.bufs)], fr.tot[len(p.bufs):]
	var n [arch.NumClasses]int64
	var prev uint64
	for i := range p.segs {
		sg := &p.segs[i]
		var h uint64
		for _, e := range sg.in {
			h += fr.cnt[e]
		}
		if sg.fallIn {
			h += prev
		}
		prev = h
		if h == 0 {
			continue
		}
		for c := range n {
			n[c] += int64(h) * sg.n[c]
		}
		for b := range ld {
			ld[b] += h * uint64(sg.ld[b])
			sto[b] += h * uint64(sg.st[b])
		}
		if sg.loop >= 0 {
			st.Trips[p.loops[sg.loop].label] += int64(h)
		}
		if faultPC >= sg.start && faultPC < sg.end {
			for pc := faultPC; pc < sg.end; pc++ {
				t := &p.tallies[pc]
				for c := range n {
					n[c] -= int64(t.n[c])
				}
				if t.ld >= 0 {
					ld[t.ld]--
				}
				if t.st >= 0 {
					sto[t.st]--
				}
			}
			for c, k := range p.tallies[faultPC].keep {
				n[c] += int64(k)
			}
			prev = h - 1
		}
	}
	for c, v := range n {
		if v != 0 {
			st.Instr[c] += float64(v)
		}
	}
	for _, lp := range p.loops {
		if v := fr.cnt[lp.edge+1]; v != 0 {
			st.Entries[lp.label] += int64(v)
		}
	}
	for i, v := range ld {
		if v != 0 {
			st.BufLd[p.bufs[i].name] += int64(v)
		}
	}
	for i, v := range sto {
		if v != 0 {
			st.BufSt[p.bufs[i].name] += int64(v)
		}
	}
}

// faultError formats an out-of-range index at pc exactly as the interpreter
// does.
func (p *Program) faultError(fr *frame, pc, idx int) error {
	w := p.code[pc]
	kind := "store"
	switch op := w.op(); {
	case op <= opLdMadF64:
		kind = "load"
	case op == opChkAt || op >= opAtI32:
		kind = "atomic"
	}
	return &Error{Kernel: p.src.Name, TID: fr.tid, Msg: fmt.Sprintf("%s %s[%d] out of range (len %d)",
		kind, p.bufs[w.slot()].name, idx, fr.bufs[w.slot()].n)}
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
	return p.execStride(lo, hi, 1, env, st)
}

// execStride executes threads lo, lo+step, … below hi on one bound frame, or
// on the interpreter when the launch's bindings do not fit the program.
func (p *Program) execStride(lo, hi, step int, env *Env, st *Stats) error {
	fr := p.bind(env)
	if fr == nil {
		return p.src.interpretStride(lo, hi, step, env, st)
	}
	fr.tid, fr.hi, fr.step, fr.done = lo, hi, step, 0
	var err error
	faultPC := -1
	if lo < hi {
		var idx int
		if faultPC, idx = exec(p.code, fr); faultPC >= 0 {
			err = p.faultError(fr, faultPC, idx)
		}
	}
	if st != nil {
		st.ensureMaps()
		fr.fold(p, st, faultPC)
		st.Threads += fr.done
	}
	putFrame(fr)
	return err
}

// Word conversions between a register and the value it holds: f64 (fw, wf),
// f32 (fs, ws), i32 with binEval's wrap (wi), a comparison (wb).
func fw(w uint64) float64 { return math.Float64frombits(w) }
func wf(f float64) uint64 { return math.Float64bits(f) }
func fs(w uint64) float32 { return math.Float32frombits(uint32(w)) }
func ws(f float32) uint64 { return uint64(math.Float32bits(f)) }
func wi(i int64) uint64   { return uint64(int64(int32(i))) }

// f32Word is the register holding the f32 value the interpreter carries as f,
// and whether there is one: float32 must hold f exactly (narrowing a
// signalling NaN quiets it, so it does not).
func f32Word(f float64) (uint64, bool) {
	w := ws(float32(f))
	return w, wf(float64(fs(w))) == wf(f)
}

// madI is a·b + r on i32 words, each step wrapped as binEval wraps it.
func madI(a, b, r uint64) uint64 { return wi(int64(wi(int64(a)*int64(b))) + int64(r)) }

func wb(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// widen is float64(fs(w)) for the argument of a math call. The conversion
// instruction merges into its destination register, which the compiler makes
// the one the previous call returned in, so the call would wait for a result
// it does not use (sin then cos of independent values ran 1.3× slower); a
// normal number widens in integer registers instead.
func widen(w uint64) float64 {
	b := uint32(w)
	if e := b >> 23 & 0xFF; e-1 < 0xFE {
		return math.Float64frombits(uint64(b&(1<<31))<<32 | uint64(e+(1023-127))<<52 | uint64(b&(1<<23-1))<<29)
	}
	return float64(math.Float32frombits(b))
}

// ldF32 is Buffer.At on an f32 element. The interpreter widens the element,
// which quiets a signalling NaN; the register holds it unwidened, so the quiet
// bit is set here.
func ldF32(v float32) uint64 {
	b := math.Float32bits(v)
	if v != v {
		b |= 1 << 22
	}
	return uint64(b)
}

// minF32 and maxF32 are math.Min and math.Max on float32s: an ordered pair
// needs no more than the comparison, and what remains — equal operands, the
// two zeros, a NaN — is math's to decide.
func minF32(x, y float32) float32 {
	switch {
	case x < y:
		return x
	case y < x:
		return y
	}
	return float32(math.Min(float64(x), float64(y)))
}

func maxF32(x, y float32) float32 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	}
	return float32(math.Max(float64(x), float64(y)))
}

// convertWord applies a conversion opcode to a constant, for compile-time
// folding; exec has the same six lines.
func convertWord(op opcode, w uint64) uint64 {
	switch op {
	case opCvtIF:
		return wf(float64(int64(w)))
	case opCvtIF32:
		return ws(float32(float64(int64(w))))
	case opCvtFI:
		return uint64(int64(fw(w)))
	case opCvtF32I:
		return uint64(int64(float64(fs(w))))
	case opRoundF32:
		return ws(float32(fw(w)))
	case opWidenF32:
		return wf(float64(fs(w)))
	}
	return w
}

// branch takes a conditional jump — fall through when ok, else jump to the
// target — and counts the edge taken.
func branch(cnt *[nRegs]uint64, w word, pc int, ok bool) int {
	e := w.d()
	if ok {
		pc++
		e++
	} else {
		pc = w.target()
	}
	cnt[e]++
	return pc
}

// exec runs threads fr.tid, fr.tid+fr.step, … below fr.hi in order, counting
// the completed ones in fr.done. It returns -1, or the pc at which fr.tid
// indexed a buffer out of range and the index. Each case is binEval, unEval,
// Value.Convert, Buffer.At/Set/AddAt or the interpreter's control flow
// specialised to one type; the evaluation order mirrors interp.go exactly.
func exec(code []word, fr *frame) (faultPC, faultIdx int) {
	regs := &fr.regs
	cnt := &fr.cnt
	regs[regTID] = uint64(fr.tid)
	cnt[0]++
	pc := 0
	for {
		w := code[pc]
		switch w.op() {
		case opMove:
			regs[w.d()] = regs[w.a()]

		case opAddI:
			regs[w.d()] = wi(int64(regs[w.a()]) + int64(regs[w.b()]))
		case opSubI:
			regs[w.d()] = wi(int64(regs[w.a()]) - int64(regs[w.b()]))
		case opMulI:
			regs[w.d()] = wi(int64(regs[w.a()]) * int64(regs[w.b()]))
		case opDivI:
			var r int64 // GPU-style quiet divide
			if y := int64(regs[w.b()]); y != 0 {
				r = int64(regs[w.a()]) / y
			}
			regs[w.d()] = wi(r)
		case opModI:
			var r int64
			if y := int64(regs[w.b()]); y != 0 {
				r = int64(regs[w.a()]) % y
			}
			regs[w.d()] = wi(r)
		case opMinI:
			r, y := int64(regs[w.a()]), int64(regs[w.b()])
			if y < r {
				r = y
			}
			regs[w.d()] = wi(r)
		case opMaxI:
			r, y := int64(regs[w.a()]), int64(regs[w.b()])
			if y > r {
				r = y
			}
			regs[w.d()] = wi(r)

		case opAddF32:
			regs[w.d()] = ws(addF32(fs(regs[w.a()]), fs(regs[w.b()])))
		case opSubF32:
			regs[w.d()] = ws(fs(regs[w.a()]) - fs(regs[w.b()]))
		case opMulF32:
			regs[w.d()] = ws(mulF32(fs(regs[w.a()]), fs(regs[w.b()])))
		case opDivF32:
			regs[w.d()] = ws(fs(regs[w.a()]) / fs(regs[w.b()]))
		case opModF32:
			regs[w.d()] = ws(float32(math.Mod(widen(regs[w.a()]), widen(regs[w.b()]))))
		case opMinF32:
			regs[w.d()] = ws(minF32(fs(regs[w.a()]), fs(regs[w.b()])))
		case opMaxF32:
			regs[w.d()] = ws(maxF32(fs(regs[w.a()]), fs(regs[w.b()])))

		case opAddF64:
			regs[w.d()] = wf(addF64(fw(regs[w.a()]), fw(regs[w.b()])))
		case opSubF64:
			regs[w.d()] = wf(fw(regs[w.a()]) - fw(regs[w.b()]))
		case opMulF64:
			regs[w.d()] = wf(mulF64(fw(regs[w.a()]), fw(regs[w.b()])))
		case opDivF64:
			regs[w.d()] = wf(fw(regs[w.a()]) / fw(regs[w.b()]))
		case opModF64:
			regs[w.d()] = wf(math.Mod(fw(regs[w.a()]), fw(regs[w.b()])))
		case opMinF64:
			regs[w.d()] = wf(math.Min(fw(regs[w.a()]), fw(regs[w.b()])))
		case opMaxF64:
			regs[w.d()] = wf(math.Max(fw(regs[w.a()]), fw(regs[w.b()])))

		case opLTI:
			regs[w.d()] = wb(int64(regs[w.a()]) < int64(regs[w.b()]))
		case opLEI:
			regs[w.d()] = wb(int64(regs[w.a()]) <= int64(regs[w.b()]))
		case opGTI:
			regs[w.d()] = wb(int64(regs[w.a()]) > int64(regs[w.b()]))
		case opGEI:
			regs[w.d()] = wb(int64(regs[w.a()]) >= int64(regs[w.b()]))
		case opEQI:
			regs[w.d()] = wb(regs[w.a()] == regs[w.b()])
		case opNEI:
			regs[w.d()] = wb(regs[w.a()] != regs[w.b()])
		case opLTF32:
			regs[w.d()] = wb(fs(regs[w.a()]) < fs(regs[w.b()]))
		case opLEF32:
			regs[w.d()] = wb(fs(regs[w.a()]) <= fs(regs[w.b()]))
		case opGTF32:
			regs[w.d()] = wb(fs(regs[w.a()]) > fs(regs[w.b()]))
		case opGEF32:
			regs[w.d()] = wb(fs(regs[w.a()]) >= fs(regs[w.b()]))
		case opEQF32:
			regs[w.d()] = wb(fs(regs[w.a()]) == fs(regs[w.b()]))
		case opNEF32:
			regs[w.d()] = wb(fs(regs[w.a()]) != fs(regs[w.b()]))
		case opLTF64:
			regs[w.d()] = wb(fw(regs[w.a()]) < fw(regs[w.b()]))
		case opLEF64:
			regs[w.d()] = wb(fw(regs[w.a()]) <= fw(regs[w.b()]))
		case opGTF64:
			regs[w.d()] = wb(fw(regs[w.a()]) > fw(regs[w.b()]))
		case opGEF64:
			regs[w.d()] = wb(fw(regs[w.a()]) >= fw(regs[w.b()]))
		case opEQF64:
			regs[w.d()] = wb(fw(regs[w.a()]) == fw(regs[w.b()]))
		case opNEF64:
			regs[w.d()] = wb(fw(regs[w.a()]) != fw(regs[w.b()]))

		case opAndI:
			regs[w.d()] = wi(int64(regs[w.a()] & regs[w.b()]))
		case opOrI:
			regs[w.d()] = wi(int64(regs[w.a()] | regs[w.b()]))
		case opXorI:
			regs[w.d()] = wi(int64(regs[w.a()] ^ regs[w.b()]))
		case opShlI:
			regs[w.d()] = wi(int64(regs[w.a()]) << uint(int64(regs[w.b()])&63))
		case opShrI:
			regs[w.d()] = wi(int64(regs[w.a()]) >> uint(int64(regs[w.b()])&63))

		case opMadI:
			regs[w.d()] = madI(regs[w.a()], regs[w.b()], regs[w.r()])

		case opMadF32:
			regs[w.d()] = ws(addF32(mulF32(fs(regs[w.a()]), fs(regs[w.b()])), fs(regs[w.r()])))
		case opRmadF32:
			regs[w.d()] = ws(addF32(fs(regs[w.r()]), mulF32(fs(regs[w.a()]), fs(regs[w.b()]))))
		case opMsubF32:
			regs[w.d()] = ws(mulF32(fs(regs[w.a()]), fs(regs[w.b()])) - fs(regs[w.r()]))
		case opRmsubF32:
			regs[w.d()] = ws(fs(regs[w.r()]) - mulF32(fs(regs[w.a()]), fs(regs[w.b()])))
		case opRmadF64:
			regs[w.d()] = wf(addF64(fw(regs[w.r()]), mulF64(fw(regs[w.a()]), fw(regs[w.b()]))))

		case opNegI:
			regs[w.d()] = -regs[w.a()] // IntVal(-a.I): not wrapped
		case opNegF32:
			regs[w.d()] = ws(-fs(regs[w.a()]))
		case opNegF64:
			regs[w.d()] = wf(-fw(regs[w.a()]))
		case opAbsI:
			x := int64(regs[w.a()])
			if x < 0 {
				x = -x
			}
			regs[w.d()] = uint64(x)
		case opAbsF32:
			regs[w.d()] = regs[w.a()] &^ (1 << 31)
		case opAbsF64:
			regs[w.d()] = wf(math.Abs(fw(regs[w.a()])))
		case opNotI:
			regs[w.d()] = wi(int64(^regs[w.a()]))
		case opFloorF32:
			regs[w.d()] = ws(float32(math.Floor(float64(fs(regs[w.a()])))))
		case opFloorF64:
			regs[w.d()] = wf(math.Floor(fw(regs[w.a()])))
		case opSqrtF32:
			regs[w.d()] = ws(float32(math.Sqrt(float64(fs(regs[w.a()])))))
		case opSqrtF64:
			regs[w.d()] = wf(math.Sqrt(fw(regs[w.a()])))
		case opRsqrtF32:
			regs[w.d()] = ws(float32(1 / math.Sqrt(float64(fs(regs[w.a()])))))
		case opRsqrtF64:
			regs[w.d()] = wf(1 / math.Sqrt(fw(regs[w.a()])))
		case opExpF32:
			regs[w.d()] = ws(float32(math.Exp(widen(regs[w.a()]))))
		case opExpF64:
			regs[w.d()] = wf(math.Exp(fw(regs[w.a()])))
		case opLogF32:
			regs[w.d()] = ws(float32(math.Log(widen(regs[w.a()]))))
		case opLogF64:
			regs[w.d()] = wf(math.Log(fw(regs[w.a()])))
		case opSinF32:
			regs[w.d()] = ws(float32(math.Sin(widen(regs[w.a()]))))
		case opSinF64:
			regs[w.d()] = wf(math.Sin(fw(regs[w.a()])))
		case opCosF32:
			regs[w.d()] = ws(float32(math.Cos(widen(regs[w.a()]))))
		case opCosF64:
			regs[w.d()] = wf(math.Cos(fw(regs[w.a()])))

		case opCvtIF:
			regs[w.d()] = wf(float64(int64(regs[w.a()])))
		case opCvtIF32:
			// Through float64, as Convert(F32) goes: past 2^53 a direct
			// conversion would round once where the interpreter rounds twice.
			regs[w.d()] = ws(float32(float64(int64(regs[w.a()]))))
		case opCvtFI:
			regs[w.d()] = uint64(int64(fw(regs[w.a()])))
		case opCvtF32I:
			regs[w.d()] = uint64(int64(float64(fs(regs[w.a()]))))
		case opRoundF32:
			regs[w.d()] = ws(float32(fw(regs[w.a()])))
		case opWidenF32:
			regs[w.d()] = wf(float64(fs(regs[w.a()])))

		case opSelI:
			if regs[w.a()] != 0 {
				regs[w.d()] = regs[w.b()]
			} else {
				regs[w.d()] = regs[w.r()]
			}
		case opSelF32:
			if fs(regs[w.a()]) != 0 {
				regs[w.d()] = regs[w.b()]
			} else {
				regs[w.d()] = regs[w.r()]
			}
		case opSelF64:
			if fw(regs[w.a()]) != 0 {
				regs[w.d()] = regs[w.b()]
			} else {
				regs[w.d()] = regs[w.r()]
			}

		case opLdI32:
			s := fr.bufs[w.c()].i32
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(s)) {
				return pc, i
			}
			regs[w.d()] = uint64(int64(s[i]))
		case opLdF32:
			s := fr.bufs[w.c()].f32
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(s)) {
				return pc, i
			}
			regs[w.d()] = ldF32(s[i])
		case opLdF64:
			s := fr.bufs[w.c()].f64
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(s)) {
				return pc, i
			}
			regs[w.d()] = wf(s[i])

		case opLdMadF32:
			s := fr.bufs[w.madSlot()].f32
			i := int(int64(madI(regs[w.a()], regs[w.b()], regs[w.r()])))
			if uint(i) >= uint(len(s)) {
				return pc, i
			}
			regs[w.d()] = ldF32(s[i])
		case opLdMadF64:
			s := fr.bufs[w.madSlot()].f64
			i := int(int64(madI(regs[w.a()], regs[w.b()], regs[w.r()])))
			if uint(i) >= uint(len(s)) {
				return pc, i
			}
			regs[w.d()] = wf(s[i])

		case opChkSt, opChkAt:
			if i := int(int64(regs[w.a()])); uint(i) >= uint(fr.bufs[w.c()].n) {
				return pc, i
			}

		case opStI32:
			b := &fr.bufs[w.c()]
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(b.i32)) {
				return pc, i
			}
			b.i32[i] = int32(int64(regs[w.b()]))
			if b.written != nil {
				b.written[i] = true
			}
		case opStF32:
			b := &fr.bufs[w.c()]
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(b.f32)) {
				return pc, i
			}
			b.f32[i] = fs(regs[w.b()])
			if b.written != nil {
				b.written[i] = true
			}
		case opStF64:
			b := &fr.bufs[w.c()]
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(b.f64)) {
				return pc, i
			}
			b.f64[i] = fw(regs[w.b()])
			if b.written != nil {
				b.written[i] = true
			}

		case opAtI32:
			b := &fr.bufs[w.c()]
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(b.i32)) {
				return pc, i
			}
			b.i32[i] += int32(int64(regs[w.b()]))
			if b.written != nil {
				b.written[i] = true
			}
		case opAtF32:
			b := &fr.bufs[w.c()]
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(b.f32)) {
				return pc, i
			}
			b.f32[i] = addF32(b.f32[i], fs(regs[w.b()]))
			if b.written != nil {
				b.written[i] = true
			}
		case opAtF64:
			b := &fr.bufs[w.c()]
			i := int(int64(regs[w.a()]))
			if uint(i) >= uint(len(b.f64)) {
				return pc, i
			}
			b.f64[i] = addF64(b.f64[i], fw(regs[w.b()]))
			if b.written != nil {
				b.written[i] = true
			}

		// Control: every transfer counts the edge it takes.
		case opJump:
			pc = w.target()
			cnt[w.d()]++
			continue
		case opJzI:
			pc = branch(cnt, w, pc, regs[w.a()] != 0)
			continue
		case opJzF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) != 0)
			continue
		case opJzF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) != 0)
			continue
		case opJnLTI:
			pc = branch(cnt, w, pc, int64(regs[w.a()]) < int64(regs[w.b()]))
			continue
		case opJnLEI:
			pc = branch(cnt, w, pc, int64(regs[w.a()]) <= int64(regs[w.b()]))
			continue
		case opJnGTI:
			pc = branch(cnt, w, pc, int64(regs[w.a()]) > int64(regs[w.b()]))
			continue
		case opJnGEI:
			pc = branch(cnt, w, pc, int64(regs[w.a()]) >= int64(regs[w.b()]))
			continue
		case opJnEQI:
			pc = branch(cnt, w, pc, regs[w.a()] == regs[w.b()])
			continue
		case opJnNEI:
			pc = branch(cnt, w, pc, regs[w.a()] != regs[w.b()])
			continue
		case opJnLTF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) < fs(regs[w.b()]))
			continue
		case opJnLEF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) <= fs(regs[w.b()]))
			continue
		case opJnGTF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) > fs(regs[w.b()]))
			continue
		case opJnGEF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) >= fs(regs[w.b()]))
			continue
		case opJnEQF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) == fs(regs[w.b()]))
			continue
		case opJnNEF32:
			pc = branch(cnt, w, pc, fs(regs[w.a()]) != fs(regs[w.b()]))
			continue
		case opJnLTF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) < fw(regs[w.b()]))
			continue
		case opJnLEF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) <= fw(regs[w.b()]))
			continue
		case opJnGTF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) > fw(regs[w.b()]))
			continue
		case opJnGEF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) >= fw(regs[w.b()]))
			continue
		case opJnEQF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) == fw(regs[w.b()]))
			continue
		case opJnNEF64:
			pc = branch(cnt, w, pc, fw(regs[w.a()]) != fw(regs[w.b()]))
			continue

		case opForInit:
			// for i := start; i < end; i++ — the loop variable is assigned
			// from the hidden index at the head of every trip, so the body
			// may overwrite it freely.
			lp := &fr.loops[w.c()]
			start, end := regs[w.a()], regs[w.b()]
			regs[lp.hid], regs[lp.hid+1] = start, end
			e := lp.edge
			if int64(end) > int64(start) {
				regs[w.d()] = start
				pc++
				e++
			} else {
				pc = int(lp.end)
			}
			cnt[e]++
			continue
		case opForNext:
			e := w.b()
			cur := regs[w.a()] + 1
			regs[w.a()] = cur
			if int64(cur) < int64(regs[w.a()+1]) {
				regs[w.d()] = cur
				pc = w.target()
			} else {
				pc++
				e++
			}
			cnt[e]++
			continue

		case opHalt:
			fr.done++
			if fr.tid += fr.step; fr.tid >= fr.hi {
				return -1, 0
			}
			regs[regTID] = uint64(fr.tid)
			cnt[0]++
			pc = 0
			continue
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

// Hash is an allocation-free FNV-1a hasher over bytes, words and strings.
// resolveProgram hashes the kernel's structure with it on every launch (so
// that a rebuilt body re-compiles); kir.Analyze and the timing cache's Dyn
// fingerprint build their identities from it too, so one process has one
// spelling of the hash. Start from NewHash.
type Hash struct{ h uint64 }

// NewHash returns a hasher at the FNV-1a offset basis.
func NewHash() Hash { return Hash{h: fnvOffset} }

// Sum returns the hash of everything fed so far.
func (w *Hash) Sum() uint64 { return w.h }

// Byte feeds one byte.
func (w *Hash) Byte(p byte) { w.h = (w.h ^ uint64(p)) * 1099511628211 }

// U64 feeds a word, low byte first.
func (w *Hash) U64(v uint64) {
	for i := 0; i < 64; i += 8 {
		w.Byte(byte(v >> i))
	}
}

// Str feeds a string and a terminator, so that "ab","c" and "a","bc" differ.
func (w *Hash) Str(s string) {
	for i := 0; i < len(s); i++ {
		w.Byte(s[i])
	}
	w.Byte(0xff)
}

// structHash walks a kernel's AST into a Hash.
type structHash struct {
	Hash
	// labels includes loop labels in the hash (progKey); Signature leaves
	// them out.
	labels bool
}

func (w *structHash) expr(e Expr) {
	switch x := e.(type) {
	case *Const:
		w.Byte(1)
		w.Byte(byte(x.T))
		w.U64(uint64(x.I))
		w.U64(math.Float64bits(x.F))
	case *TIDExpr:
		w.Byte(2)
	case *NTExpr:
		w.Byte(3)
	case *ParamExpr:
		w.Byte(4)
		w.Str(x.Name)
	case *VarExpr:
		w.Byte(5)
		w.Str(x.Name)
	case *BinExpr:
		w.Byte(6)
		w.Byte(byte(x.Op))
		w.expr(x.A)
		w.expr(x.B)
	case *UnExpr:
		w.Byte(7)
		w.Byte(byte(x.Op))
		w.expr(x.A)
	case *LoadExpr:
		w.Byte(8)
		w.Str(x.Buf)
		w.expr(x.Idx)
	case *CastExpr:
		w.Byte(9)
		w.Byte(byte(x.T))
		w.expr(x.A)
	case *SelExpr:
		w.Byte(10)
		w.expr(x.Cond)
		w.expr(x.A)
		w.expr(x.B)
	default:
		w.Byte(255) // unknown node: compiles to a fallback entry
	}
}

func (w *structHash) stmts(ss []Stmt) {
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			w.Byte(20)
			w.Str(x.Name)
			w.expr(x.E)
		case *StoreStmt:
			w.Byte(21)
			w.Str(x.Buf)
			w.expr(x.Idx)
			w.expr(x.Val)
		case *AtomicAddStmt:
			w.Byte(22)
			w.Str(x.Buf)
			w.expr(x.Idx)
			w.expr(x.Val)
		case *ForStmt:
			w.Byte(23)
			if w.labels {
				w.Str(x.Label)
			}
			w.Str(x.Var)
			w.expr(x.Start)
			w.expr(x.End)
			w.stmts(x.Body)
			w.Byte(24)
		case *IfStmt:
			w.Byte(25)
			w.expr(x.Cond)
			w.stmts(x.Then)
			w.Byte(26)
			w.stmts(x.Else)
			w.Byte(27)
		case *BreakStmt:
			w.Byte(28)
		default:
			w.Byte(254)
		}
	}
	w.Byte(0)
}

// structKey hashes the kernel's name, declarations and body. Buffer
// declarations are hashed one by one and summed, so their order does not
// matter; Stride and L2Fraction are left out — two kernels that differ only
// in those compute the same thing — and folded in by the pricing identity
// kir.Analyze records, because the cache model reads them.
func (k *Kernel) structKey(labels bool) uint64 {
	w := structHash{Hash: NewHash(), labels: labels}
	w.Str(k.Name)
	var bufs uint64
	for i := range k.Bufs {
		b := &k.Bufs[i]
		d := NewHash()
		d.Str(b.Name)
		d.Byte(byte(b.Elem))
		d.Byte(byte(b.Access))
		if b.ReadOnly {
			d.Byte(1)
		} else {
			d.Byte(0)
		}
		bufs += d.h
	}
	w.U64(bufs)
	for i := range k.Params {
		w.Str(k.Params[i].Name)
		w.Byte(byte(k.Params[i].T))
	}
	w.Byte(0)
	w.stmts(k.Body)
	return w.h
}

// Signature returns a stable structural fingerprint of the kernel: what it
// computes, whatever its loop labels, the order of its buffer declarations and
// their cache hints. It walks the whole body, so nothing calls it per launch:
// kir.Analyze takes it once and records it, cache hints folded in, as the
// identity (kir.Program.Identity) by which the Re-scheduler's Kernel Match
// stage (paper Fig. 2) decides that requests from different VPs invoke the
// *identical* kernel, and by which the launch timing cache keys.
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

// execStride runs threads lo, lo+step, … below hi on the compiled program
// when available and on the interpreter otherwise.
func (k *Kernel) execStride(p *Program, lo, hi, step int, env *Env, st *Stats) error {
	if p != nil {
		return p.execStride(lo, hi, step, env, st)
	}
	return k.interpretStride(lo, hi, step, env, st)
}
