package kpl

// The KPL compiler. Compile lowers a kernel's AST once into a statically
// typed, slot-indexed instruction stream (a Program). Everything that does
// not depend on the thread index or on buffer contents is decided here, once:
//
//   - Types. Inference is flow-sensitive over the structured AST: a Const
//     carries its type, a parameter its declared type, a load its buffer's
//     declared element type; tid, nthreads and loop variables are i32; a
//     BinExpr is Promote(a, b), comparisons and bitwise operators i32; a
//     UnExpr follows unEval (math intrinsics on i32 promote to f32); a Cast is
//     its target; a Sel needs equal arm types. Every instruction is one
//     (operator, type) pair — binEval/unEval/Convert specialised to that
//     type — and a mixed-type operand gets an explicit convert emitted here.
//   - Registers. Untyped 8-byte words holding a value in its own type's host
//     form: an i32 as int64 (as Value.I is), an f64 as float64 bits, an f32
//     as float32 bits in the low half. f32 + − × ÷ sqrt neg abs min max floor
//     are computed in float32, which is bit-identical to the interpreter's
//     "compute in float64, round once" because both operands are float32s
//     (53 ≥ 2·24 + 2: the float64 result rounds to the float32 the
//     single-precision operation gives); mod, rsqrt, exp, log, sin and cos
//     widen, call math and round once. That identity needs both operands in
//     float32, so an operation mixing an i32 with an f32 — which the
//     interpreter evaluates on the exact float64 of the integer — widens
//     both, runs the f64 opcode under the f32 class tally and rounds with an
//     untallied opRoundF32 (16777217 + 1f is not f32(16777217) + 1f); an i32
//     constant that float32 holds exactly just becomes an f32 constant.
//   - Operands. Constants live in a pool at the top of the register file,
//     parameters in registers filled once per launch (see bind in
//     program.go), so neither costs an instruction; tid and nthreads are
//     registers too. Buffers resolve to slots whose typed slice headers are
//     bound per launch.
//   - Launch invariants. An expression over constants, parameters and
//     nthreads under pure operators — (n + nthreads − 1)/nthreads,
//     r + 0.5f·vol·vol, m·n — has one value per launch. It is lowered into a
//     prologue, a second instruction stream that bind runs once on the same
//     exec, and its result sits in a register beside the constant pool. The
//     interpreter evaluates it per thread, so its tally stays where it was:
//     on the next thread instruction emitted, as that instruction's keep
//     part (counted even when that instruction faults, because the
//     interpreter had evaluated the expression before it reached the fault).
//   - Superinstructions, chosen from the dynamic opcode pairs of the registry
//     kernels (DESIGN §9 has the frequencies): a·b ± r and r ± a·b on f32,
//     r + a·b on f64, in one dispatch with both roundings kept, and a float
//     load whose index is a·b + r in one dispatch (its two Int are keep: a
//     faulting index was still computed).
//   - Statistics. The instruction class of every instruction is known
//     statically, so the compiler records a tally per instruction and sums
//     them per straight-line segment; the engine counts control-flow edges
//     (one add per branch taken, none per instruction) and fold multiplies
//     each segment's tally by the traffic on the edges into it.
//
// The hard invariant is bit-identity with the tree-walking interpreter:
// buffers, statistics and error text must match interp.go exactly for every
// kernel, geometry and worker count. Whenever the compiler cannot prove that
// a lowering preserves interpreter semantics, Compile refuses with an
// *unsupportedError and the kernel runs on the interpreter (resolveProgram).
// The refusal list:
//
//   - a variable that may be read before it is assigned on some dynamic path
//     (a runtime error in the interpreter);
//   - a variable holding two different types where control flow merges: after
//     an if whose arms disagree, at a loop back-edge or exit (`let acc = cf(0)`
//     then `acc = acc + <f64 load>` in the body), at a break;
//   - a Sel whose arms have different types;
//   - an undeclared parameter or buffer, a type, operator or AST node outside
//     the language;
//   - an f32 constant that float32 does not hold exactly (the interpreter
//     carries its float64 as it is; a register cannot). An f32 parameter
//     bound to such a value makes bind refuse that launch instead;
//   - a kernel needing more than 256 registers — prologue results included —
//     or 256 control-flow edges, or an instruction tally past 65535.
//
// Statements that can never execute (after an unconditional break) are not
// lowered at all; the interpreter never reaches them either.

import (
	"fmt"
	"math"

	"repro/internal/arch"
)

// opcode enumerates the Program instruction set: one opcode per (operator,
// type). The blocks are laid out so that the opcode of an AST operator is an
// offset from the block's first member (see binOpcode, unOpcode).
type opcode uint8

const (
	opHalt opcode = iota
	opMove

	// Arithmetic, BinOp order, one block per Type: opAddI + 7·Type + BinOp.
	opAddI
	opSubI
	opMulI
	opDivI
	opModI
	opMinI
	opMaxI
	opAddF32
	opSubF32
	opMulF32
	opDivF32
	opModF32
	opMinF32
	opMaxF32
	opAddF64
	opSubF64
	opMulF64
	opDivF64
	opModF64
	opMinF64
	opMaxF64

	// Comparisons yield i32 0/1: opLTI + 6·Type + (BinOp − OpLT).
	opLTI
	opLEI
	opGTI
	opGEI
	opEQI
	opNEI
	opLTF32
	opLEF32
	opGTF32
	opGEF32
	opEQF32
	opNEF32
	opLTF64
	opLEF64
	opGTF64
	opGEF64
	opEQF64
	opNEF64

	// Bitwise, integer operands only (float operands are converted first).
	opAndI
	opOrI
	opXorI
	opShlI
	opShrI

	// a·b + c on integers: the index arithmetic of nearly every kernel
	// (row·k + kk, tid + j·nthreads), fused.
	opMadI

	// The float multiply-adds, a·b rounded before the add or subtract as the
	// two instructions they replace round it. The forms differ in operand
	// order, which a sum of two NaNs and any difference observe; madOpcode
	// selects one. Only the pairs the registry kernels run have an opcode
	// (DESIGN §9): on f64 that is matrixMul's acc + a·b alone.
	opMadF32   // a·b + c
	opRmadF32  // c + a·b
	opMsubF32  // a·b − c
	opRmsubF32 // c − a·b
	opRmadF64

	// Unary: opNegI + Type, opAbsI + Type; the math intrinsics have an f32
	// and an f64 form each, in UnOp order from OpFloor.
	opNegI
	opNegF32
	opNegF64
	opAbsI
	opAbsF32
	opAbsF64
	opNotI
	opFloorF32
	opFloorF64
	opSqrtF32
	opSqrtF64
	opRsqrtF32
	opRsqrtF64
	opExpF32
	opExpF64
	opLogF32
	opLogF64
	opSinF32
	opSinF64
	opCosF32
	opCosF64

	// Conversions, one per ordered pair of types (cvtOpcode): Value.Float and
	// Convert(F32) of an i32, Value.Int of a float (truncation toward zero,
	// not wrapped), Convert(F32) of an f64, and the widening of an f32 that
	// Value.F never needed.
	opCvtIF
	opCvtIF32
	opCvtFI
	opCvtF32I
	opRoundF32
	opWidenF32

	// Select: opSelI + the condition's Type.
	opSelI
	opSelF32
	opSelF64

	// Memory. Loads and stores check their index; opLdMad* index with a·b + r
	// (r and the slot share c; no registry kernel indexes an i32 buffer so);
	// opChkSt/opChkAt are the early bounds check the interpreter performs
	// before it evaluates the value operand.
	opLdI32
	opLdF32
	opLdF64
	opLdMadF32
	opLdMadF64
	opChkSt
	opChkAt
	opStI32
	opStF32
	opStF64
	opAtI32
	opAtF32
	opAtF64

	// Control. opJz* + the condition's Type; opJn* are fused
	// compare-and-branch: jump when the comparison is false, in the order of
	// the comparison blocks above.
	opJump
	opJzI
	opJzF32
	opJzF64
	opJnLTI
	opJnLEI
	opJnGTI
	opJnGEI
	opJnEQI
	opJnNEI
	opJnLTF32
	opJnLEF32
	opJnGTF32
	opJnGEF32
	opJnEQF32
	opJnNEF32
	opJnLTF64
	opJnLEF64
	opJnGTF64
	opJnGEF64
	opJnEQF64
	opJnNEF64
	opForInit
	opForNext
)

// isControl reports whether the opcode ends a straight-line segment.
func (o opcode) isControl() bool { return o == opHalt || o >= opJump }

// binOpcode returns the typed opcode of a binary operator whose promoted
// operand type is t (bitwise operators ignore t: their operands are i32).
func binOpcode(op BinOp, t Type) opcode {
	switch {
	case op.IsBitwise():
		return opAndI + opcode(op-OpAnd)
	case op.IsCompare():
		return opLTI + 6*opcode(t) + opcode(op-OpLT)
	default:
		return opAddI + 7*opcode(t) + opcode(op)
	}
}

// unOpcode returns the typed opcode of a unary operator on an operand of type
// t; the math intrinsics take f32 or f64 only.
func unOpcode(op UnOp, t Type) opcode {
	switch op {
	case OpNeg:
		return opNegI + opcode(t)
	case OpAbs:
		return opAbsI + opcode(t)
	case OpNot:
		return opNotI
	default:
		return opFloorF32 + 2*opcode(op-OpFloor) + opcode(t-F32)
	}
}

// madOpcode[t][form] is the fused opcode of a multiply-add on operands of
// type t, or 0 where there is none; the forms are p·q + r, r + p·q, p·q − r
// and r − p·q. ldMadOpcode[elem] is the load indexed by an i32 p·q + r.
var (
	madOpcode = [3][4]opcode{
		I32: {opMadI, opMadI, 0, 0},
		F32: {opMadF32, opRmadF32, opMsubF32, opRmsubF32},
		F64: {0, opRmadF64, 0, 0},
	}
	ldMadOpcode = [3]opcode{F32: opLdMadF32, F64: opLdMadF64}
)

// cvtOpcode[from][to] is Value.Convert between two types; opMove where the
// word does not change.
var cvtOpcode = [3][3]opcode{
	I32: {opMove, opCvtIF32, opCvtIF},
	F32: {opCvtF32I, opMove, opWidenF32},
	F64: {opCvtFI, opRoundF32, opMove},
}

// instr is one lowered instruction: eight bytes. dst, a and b index the
// 256-word register file, so no access needs a bounds check; c is a jump
// target, a buffer slot, a loop slot (opForInit), a fourth register (opSel*,
// opMad*) or a fourth register under a buffer slot (opLdMad*). Control
// instructions number their outgoing edges instead of naming a destination
// register: the edge taken by jumping is dst (b for opForNext, loopSlot.edge
// for opForInit), the fall-through edge the next.
type instr struct {
	op        opcode
	dst, a, b uint8
	c         int32
}

// word is an instr packed for exec, which fetches it whole and keeps it in a
// machine register: op, dst, a, b in the low four bytes, c in the high four.
type word uint64

func (i instr) word() word {
	return word(i.op) | word(i.dst)<<8 | word(i.a)<<16 | word(i.b)<<24 | word(uint32(i.c))<<32
}

func (w word) op() opcode  { return opcode(w) }
func (w word) d() uint8    { return uint8(w >> 8) }
func (w word) a() uint8    { return uint8(w >> 16) }
func (w word) b() uint8    { return uint8(w >> 24) }
func (w word) c() int32    { return int32(w >> 32) }
func (w word) r() uint8    { return uint8(w >> 32) } // c's low byte as a fourth register
func (w word) target() int { return int(int32(w >> 32)) }

// slot is the buffer slot of a memory instruction: c, or for opLdMad*, whose
// c also holds the fourth register, the part above it (madSlot).
func (w word) slot() int32 {
	if op := w.op(); op == opLdMadF32 || op == opLdMadF64 {
		return w.madSlot()
	}
	return w.c()
}

func (w word) madSlot() int32 { return w.c() >> 8 }

// tally is what one executed instruction adds to the statistics. keep is the
// part of n it has added by the time it faults: what the interpreter had
// already evaluated when it reached the failing bounds check.
type tally struct {
	n, keep [arch.NumClasses]uint16
	ld, st  int16 // buffer slot whose load/store count it bumps, or -1
}

var noTally = tally{ld: -1, st: -1}

func classTally(c arch.InstrClass, n int) tally {
	t := noTally
	t.n[c] = uint16(n)
	return t
}

// segment is a maximal straight-line run of instructions [start, end): it is
// entered only at start and left only by its last instruction. n, ld and st
// are what one full execution adds to the statistics.
type segment struct {
	start, end int
	// in lists the control-flow edges that land on start; fallIn adds the
	// previous segment, which runs into this one without a control
	// instruction.
	in     []uint8
	fallIn bool
	// loop is the slot of the loop whose body starts here, or -1. Entering it
	// is one trip: increment + compare + backward branch.
	loop   int
	n      [arch.NumClasses]int64
	ld, st []int64 // per buffer slot
}

type paramSlot struct {
	name string
	t    Type
	reg  uint8
}

type bufSlot struct {
	name string
	elem Type
}

type loopSlot struct {
	label string
	hid   uint8 // registers hid, hid+1 hold the running index and the bound
	edge  uint8 // opForInit's edges: edge skips the loop, edge+1 enters it
	end   int32 // first pc after the loop
}

// Program is a kernel lowered to a typed instruction stream. It is immutable
// after Compile and safe for concurrent execution: all mutable state lives in
// per-call frames.
type Program struct {
	// src is the kernel as compiled: launches whose bindings contradict the
	// compiled types run on the interpreter (see bind).
	src  *Kernel
	code []word
	// tallies parallels code; segs partitions it.
	tallies []tally
	segs    []segment
	// pro is the prologue bind runs once per launch: the launch-invariant
	// expressions, straight-line, ending in opHalt; nil when there are none.
	pro []word

	// pool[i] is the launch's initial content of register nRegs-1-i: a
	// constant, or zero where the prologue leaves a result.
	pool    []uint64
	params  []paramSlot
	bufs    []bufSlot
	loops   []loopSlot
	nEdges  int // edge 0 is the start of a thread
	atomics bool
}

// unsupportedError reports a construct Compile does not cover; the execution
// engine falls back to the interpreter for such kernels.
type unsupportedError struct{ reason string }

func (e *unsupportedError) Error() string { return "kpl: compile: " + e.reason }

func unsupportedf(format string, args ...any) error {
	return &unsupportedError{reason: fmt.Sprintf(format, args...)}
}

// Register file layout: tid, nthreads, parameters, variables, two hidden
// registers per loop, expression temporaries growing up — and the pool of
// constants and prologue results growing down from the top.
const (
	nRegs  = 256
	regTID = 0
	regNT  = 1
)

// vtype is the compile-time state of a variable: 0 while it may be
// unassigned, 1+Type once it is definitely assigned with that type.
type vtype uint8

func typed(t Type) vtype { return vtype(t) + 1 }

// operand is a lowered expression: the register holding it and its type.
// Constants also carry their value so that conversions fold.
type operand struct {
	reg   uint8
	t     Type
	konst bool
	bits  uint64
}

// loopCtx is the compile-time state of an enclosing loop.
type loopCtx struct {
	entry  []vtype // variable states on entry, which every exit must preserve
	breaks []int   // opJump pcs awaiting the loop's end pc
}

type compiler struct {
	k       *Kernel
	code    []instr
	tallies []tally

	// The prologue, and the thread stream's statistics for it: while
	// hoisting, code and tallies above are the prologue's; pending is the
	// tally of the hoisted expressions the next thread instruction leads.
	pro      []instr
	hoisting bool
	pending  [arch.NumClasses]uint16
	overflow bool // a tally passed 65535

	vars     map[string]int // variable name → index; register = varBase + index
	varNames []string       // index → name
	varBase  int

	hiddenNext int // next hidden loop-state register pair
	tmpBase    int // first expression-temporary register
	tmp        int // live temporaries
	maxTmp     int // temporary high-water mark

	constRegs map[uint64]uint8
	pool      []uint64

	params   []paramSlot
	paramIdx map[string]int
	badParam error // first parameter read without a usable declaration
	bufs     []bufSlot
	bufSlots map[string]int32
	loops    []loopSlot
	bodyHead map[int]int // pc of a loop body's first instruction → loop slot
	nEdges   int

	enclosing []*loopCtx
	topBreaks []int // breaks outside any loop: jump to halt (thread ends)
}

// Compile lowers the kernel into a Program. It returns an *unsupportedError
// when the kernel uses a construct whose interpreter semantics the typed
// engine cannot reproduce bit-identically; see the refusal list above.
func Compile(k *Kernel) (*Program, error) {
	c := &compiler{
		k:         k,
		vars:      map[string]int{},
		constRegs: map[uint64]uint8{},
		paramIdx:  map[string]int{},
		bufSlots:  map[string]int32{},
		bodyHead:  map[int]int{},
		nEdges:    1,
	}
	nFors := c.collect(k.Body)
	if c.badParam != nil {
		return nil, c.badParam
	}
	c.varBase = regNT + 1 + len(c.params)
	c.hiddenNext = c.varBase + len(c.vars)
	c.tmpBase = c.hiddenNext + 2*nFors

	if _, err := c.stmts(k.Body, make([]vtype, len(c.vars))); err != nil {
		return nil, err
	}
	halt := int32(c.emit(instr{op: opHalt}, noTally))
	for _, pc := range c.topBreaks {
		c.code[pc].c = halt
	}
	if need := c.tmpBase + c.maxTmp + len(c.pool); need > nRegs {
		return nil, unsupportedf("kernel needs %d registers (max %d)", need, nRegs)
	}
	if c.nEdges > nRegs {
		return nil, unsupportedf("kernel has %d control-flow edges (max %d)", c.nEdges, nRegs)
	}
	if c.overflow {
		return nil, unsupportedf("an instruction's tally exceeds %d", math.MaxUint16)
	}
	if len(c.pro) > 0 {
		c.pro = append(c.pro, instr{op: opHalt})
	}
	src := *k
	return &Program{
		src:     &src,
		code:    pack(c.code),
		tallies: c.tallies,
		segs:    c.segments(),
		pro:     pack(c.pro),
		pool:    c.pool,
		params:  c.params,
		bufs:    c.bufs,
		loops:   c.loops,
		nEdges:  c.nEdges,
		atomics: stmtsHaveAtomics(k.Body),
	}, nil
}

func pack(code []instr) []word {
	if len(code) == 0 {
		return nil
	}
	out := make([]word, len(code))
	for i, ins := range code {
		out[i] = ins.word()
	}
	return out
}

// collect interns every assigned variable (Let targets and loop variables)
// and every parameter read, and counts loops, sizing the fixed part of the
// register file before lowering begins.
func (c *compiler) collect(ss []Stmt) int {
	n := 0
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			c.varIndex(x.Name)
			c.collectParams(x.E)
		case *StoreStmt:
			c.collectParams(x.Idx, x.Val)
		case *AtomicAddStmt:
			c.collectParams(x.Idx, x.Val)
		case *ForStmt:
			c.varIndex(x.Var)
			c.collectParams(x.Start, x.End)
			n += 1 + c.collect(x.Body)
		case *IfStmt:
			c.collectParams(x.Cond)
			n += c.collect(x.Then) + c.collect(x.Else)
		}
	}
	return n
}

func (c *compiler) collectParams(es ...Expr) {
	for _, e := range es {
		switch x := e.(type) {
		case *ParamExpr:
			c.param(x.Name)
		case *BinExpr:
			c.collectParams(x.A, x.B)
		case *UnExpr:
			c.collectParams(x.A)
		case *LoadExpr:
			c.collectParams(x.Idx)
		case *CastExpr:
			c.collectParams(x.A)
		case *SelExpr:
			c.collectParams(x.Cond, x.A, x.B)
		}
	}
}

// param interns a parameter: its register is filled by bind at every launch
// (which refuses the launch when the name is unbound or bound to another
// type).
func (c *compiler) param(name string) {
	if _, ok := c.paramIdx[name]; ok {
		return
	}
	decl := c.k.Param(name)
	switch {
	case c.badParam != nil:
	case decl == nil:
		c.badParam = unsupportedf("undeclared parameter %q", name)
	case decl.T > F64:
		c.badParam = unsupportedf("parameter %q: unknown type %v", name, decl.T)
	default:
		c.paramIdx[name] = len(c.params)
		c.params = append(c.params, paramSlot{name: name, t: decl.T, reg: uint8(regNT + 1 + len(c.params))})
	}
}

func (c *compiler) varIndex(name string) int {
	if i, ok := c.vars[name]; ok {
		return i
	}
	i := len(c.vars)
	c.vars[name] = i
	c.varNames = append(c.varNames, name)
	return i
}

// varReg narrows a variable index to its register. A kernel with too many
// variables wraps here and is refused by the register budget check at the end
// of Compile.
func (c *compiler) varReg(i int) uint8 { return uint8(c.varBase + i) }

func (c *compiler) bufSlot(name string) (int32, Type, error) {
	if s, ok := c.bufSlots[name]; ok {
		return s, c.bufs[s].elem, nil
	}
	decl := c.k.Buf(name)
	if decl == nil {
		return 0, 0, unsupportedf("undeclared buffer %q", name)
	}
	if decl.Elem > F64 {
		return 0, 0, unsupportedf("buffer %q: unknown element type %v", name, decl.Elem)
	}
	s := int32(len(c.bufs))
	c.bufSlots[name] = s
	c.bufs = append(c.bufs, bufSlot{name: name, elem: decl.Elem})
	return s, decl.Elem, nil
}

// poolReg takes the next register of the pool, which bind fills with bits. A
// kernel with too many wraps here and is refused by the register budget check
// at the end of Compile.
func (c *compiler) poolReg(bits uint64) uint8 {
	c.pool = append(c.pool, bits)
	return uint8(nRegs - len(c.pool))
}

// konst interns a constant word in the pool and returns it as an operand.
func (c *compiler) konst(t Type, bits uint64) operand {
	r, ok := c.constRegs[bits]
	if !ok {
		r = c.poolReg(bits)
		c.constRegs[bits] = r
	}
	return operand{reg: r, t: t, konst: true, bits: bits}
}

// accumulate adds src to dst, noting a sum that does not fit.
func (c *compiler) accumulate(dst *[arch.NumClasses]uint16, src [arch.NumClasses]uint16) {
	for cl, n := range src {
		if dst[cl] += n; dst[cl] < n {
			c.overflow = true
		}
	}
}

// emit appends an instruction to the stream being lowered. A thread
// instruction takes the pending tally of the hoisted expressions it leads, as
// part of its keep: the interpreter evaluated them before it got here.
func (c *compiler) emit(i instr, t tally) int {
	if !c.hoisting && c.pending != [arch.NumClasses]uint16{} {
		c.accumulate(&t.n, c.pending)
		c.accumulate(&t.keep, c.pending)
		c.pending = [arch.NumClasses]uint16{}
	}
	c.code = append(c.code, i)
	c.tallies = append(c.tallies, t)
	return len(c.code) - 1
}

// invariant reports whether e has one value per launch: constants,
// parameters and nthreads under operators that read nothing else.
func invariant(e Expr) bool {
	switch x := e.(type) {
	case *Const, *NTExpr, *ParamExpr:
		return true
	case *BinExpr:
		return invariant(x.A) && invariant(x.B)
	case *UnExpr:
		return invariant(x.A)
	case *CastExpr:
		return invariant(x.A)
	case *SelExpr:
		return invariant(x.Cond) && invariant(x.A) && invariant(x.B)
	}
	return false
}

// hoist lowers a launch-invariant expression into the prologue, its result
// into a pool register, and leaves what the interpreter would have counted
// for it pending on the next thread instruction.
func (c *compiler) hoist(e Expr, st []vtype, dst int) (operand, error) {
	h := c.poolReg(0)
	code, tallies := c.code, c.tallies
	c.code, c.tallies, c.hoisting = c.pro, nil, true
	o, err := c.expr(e, st, int(h))
	c.pro, c.hoisting = c.code, false
	for _, t := range c.tallies {
		c.accumulate(&c.pending, t.n)
	}
	c.code, c.tallies = code, tallies
	if err != nil {
		return operand{}, err
	}
	return c.place(operand{reg: h, t: o.t}, dst), nil
}

// edges numbers the n outgoing edges of a control instruction. A kernel with
// too many wraps here and is refused at the end of Compile.
func (c *compiler) edges(n int) uint8 {
	e := c.nEdges
	c.nEdges += n
	return uint8(e)
}

func (c *compiler) allocTmp() uint8 {
	r := c.tmpBase + c.tmp
	c.tmp++
	if c.tmp > c.maxTmp {
		c.maxTmp = c.tmp
	}
	return uint8(r)
}

// dest resolves an expression destination: dst ≥ 0 is a caller-imposed
// register, −1 allocates a temporary.
func (c *compiler) dest(dst int) uint8 {
	if dst >= 0 {
		return uint8(dst)
	}
	return c.allocTmp()
}

// place forces an already-lowered operand into dst when the caller imposed
// one.
func (c *compiler) place(o operand, dst int) operand {
	if dst < 0 || int(o.reg) == dst {
		return o
	}
	c.emit(instr{op: opMove, dst: uint8(dst), a: o.reg}, noTally)
	return operand{reg: uint8(dst), t: o.t}
}

// convert emits op (one of cvtOpcode's) on o, folding it when o is a
// constant. The result has type t.
func (c *compiler) convert(op opcode, o operand, t Type, tl tally, dst int) operand {
	if o.konst && dst < 0 && tl == noTally {
		return c.konst(t, convertWord(op, o.bits))
	}
	d := c.dest(dst)
	c.emit(instr{op: op, dst: d, a: o.reg}, tl)
	return operand{reg: d, t: t}
}

// to is the conversion the interpreter applies without counting it: Value.Int
// of an index, a bound or a bitwise operand, Value.Float of a promoted
// operand, the narrowing inside Buffer.Set.
func (c *compiler) to(o operand, t Type) operand {
	if o.t == t {
		return o
	}
	return c.convert(cvtOpcode[o.t][t], o, t, noTally, -1)
}

func cloneTypes(st []vtype) []vtype { return append([]vtype(nil), st...) }

// agree checks that every variable assigned in want holds the same type in
// got: the rule at every point where two control-flow paths meet.
func (c *compiler) agree(want, got []vtype, where string) error {
	for i, name := range c.varNames {
		if want[i] != 0 && got[i] != 0 && want[i] != got[i] {
			return unsupportedf("variable %q is %v or %v %s", name, Type(want[i]-1), Type(got[i]-1), where)
		}
	}
	return nil
}

// stmts lowers a statement block. st is the variable state (assigned or not,
// and with which type), mutated in place so callers observe assignments made
// by the block. The returned flag reports whether the block can complete
// normally; a block ending in an unconditional break (directly or through an
// if whose branches both break) cannot, and the statements after that point
// are dropped.
func (c *compiler) stmts(ss []Stmt, st []vtype) (bool, error) {
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			vi := c.varIndex(x.Name)
			mark := c.tmp
			o, err := c.expr(x.E, st, int(c.varReg(vi)))
			if err != nil {
				return false, err
			}
			c.tmp = mark
			st[vi] = typed(o.t)

		case *StoreStmt:
			if err := c.memStmt(x.Buf, x.Idx, x.Val, st, opChkSt, opStI32); err != nil {
				return false, err
			}

		case *AtomicAddStmt:
			if err := c.memStmt(x.Buf, x.Idx, x.Val, st, opChkAt, opAtI32); err != nil {
				return false, err
			}

		case *ForStmt:
			if err := c.forStmt(x, st); err != nil {
				return false, err
			}

		case *IfStmt:
			ok, err := c.ifStmt(x, st)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}

		case *BreakStmt:
			pc := c.emit(instr{op: opJump, dst: c.edges(1)}, classTally(arch.Branch, 1))
			if n := len(c.enclosing); n > 0 {
				lp := c.enclosing[n-1]
				if err := c.agree(lp.entry, st, "at a break"); err != nil {
					return false, err
				}
				lp.breaks = append(lp.breaks, pc)
			} else {
				// Break outside any loop: the interpreter lets the control
				// sentinel propagate to the top and the thread simply ends.
				c.topBreaks = append(c.topBreaks, pc)
			}
			return false, nil

		default:
			return false, unsupportedf("unknown statement %T", s)
		}
	}
	return true, nil
}

// isLeaf reports whether lowering e emits no instruction.
func isLeaf(e Expr) bool {
	switch e.(type) {
	case *Const, *TIDExpr, *NTExpr, *ParamExpr, *VarExpr:
		return true
	}
	return false
}

// memStmt lowers a store or an atomic add in interpreter order: index
// evaluation, bounds check, value evaluation, access. The access instruction
// checks the index itself, so the separate early check is only needed when
// evaluating the value executes instructions the interpreter would not have
// reached. first is the i32 member of the access's opcode block.
func (c *compiler) memStmt(buf string, idx, val Expr, st []vtype, chk, first opcode) error {
	slot, elem, err := c.bufSlot(buf)
	if err != nil {
		return err
	}
	mark := c.tmp
	oi, err := c.expr(idx, st, -1)
	if err != nil {
		return err
	}
	oi = c.to(oi, I32)
	if !isLeaf(val) {
		c.emit(instr{op: chk, a: oi.reg, c: slot}, noTally)
	}
	ov, err := c.expr(val, st, -1)
	if err != nil {
		return err
	}
	ov = c.to(ov, elem) // Buffer.Set / Buffer.AddAt narrow to the element type
	tl := classTally(arch.St, 1)
	tl.st = int16(slot)
	if first == opAtI32 {
		tl.n[arch.Ld] = 1
		tl.ld = int16(slot)
	}
	c.emit(instr{op: first + opcode(elem), a: oi.reg, b: ov.reg, c: slot}, tl)
	c.tmp = mark
	return nil
}

func (c *compiler) forStmt(x *ForStmt, st []vtype) error {
	mark := c.tmp
	os, err := c.expr(x.Start, st, -1)
	if err != nil {
		return err
	}
	os = c.to(os, I32)
	oe, err := c.expr(x.End, st, -1)
	if err != nil {
		return err
	}
	oe = c.to(oe, I32)

	slot := len(c.loops)
	hid := uint8(c.hiddenNext)
	c.hiddenNext += 2
	c.loops = append(c.loops, loopSlot{label: x.Label, hid: hid, edge: c.edges(2)})
	vi := c.varIndex(x.Var)
	c.emit(instr{op: opForInit, dst: c.varReg(vi), a: os.reg, b: oe.reg, c: int32(slot)}, noTally)
	c.tmp = mark

	body := len(c.code)
	c.bodyHead[body] = slot

	// The body may run zero times: only the loop variable joins the assigned
	// set inside it, and the body's assignments do not escape. Variables
	// assigned before the loop must leave it — by the back-edge, by falling
	// out, or by a break — with the type they entered with.
	lp := &loopCtx{entry: cloneTypes(st)}
	c.enclosing = append(c.enclosing, lp)
	bodySt := cloneTypes(st)
	bodySt[vi] = typed(I32)
	completes, err := c.stmts(x.Body, bodySt)
	if err != nil {
		return err
	}
	if completes {
		if err := c.agree(lp.entry, bodySt, "at the end of a loop body"); err != nil {
			return err
		}
	}
	c.enclosing = c.enclosing[:len(c.enclosing)-1]
	c.emit(instr{op: opForNext, dst: c.varReg(vi), a: hid, b: c.edges(2), c: int32(body)}, noTally)

	end := int32(len(c.code))
	c.loops[slot].end = end
	for _, pc := range lp.breaks {
		c.code[pc].c = end
	}
	return nil
}

// ifStmt lowers a conditional and merges the branches' variable states into
// st. It reports whether execution can continue past the if. A comparison
// condition fuses with the branch.
func (c *compiler) ifStmt(x *IfStmt, st []vtype) (bool, error) {
	mark := c.tmp
	var jz int
	if cmp, ok := x.Cond.(*BinExpr); ok && cmp.Op.IsCompare() {
		oa, err := c.expr(cmp.A, st, -1)
		if err != nil {
			return false, err
		}
		ob, err := c.expr(cmp.B, st, -1)
		if err != nil {
			return false, err
		}
		oa, ob, run, t := c.promote(oa, ob)
		tl := classTally(classOf(t), 1)
		tl.n[arch.Branch]++
		op := opJnLTI + (binOpcode(cmp.Op, run) - opLTI)
		jz = c.emit(instr{op: op, dst: c.edges(2), a: oa.reg, b: ob.reg}, tl)
	} else {
		oc, err := c.expr(x.Cond, st, -1)
		if err != nil {
			return false, err
		}
		jz = c.emit(instr{op: opJzI + opcode(oc.t), dst: c.edges(2), a: oc.reg}, classTally(arch.Branch, 1))
	}
	c.tmp = mark

	stT := cloneTypes(st)
	thenC, err := c.stmts(x.Then, stT)
	if err != nil {
		return false, err
	}
	stE := st // no else arm: the other path is the state before the if
	elseC := true
	if len(x.Else) == 0 {
		c.code[jz].c = int32(len(c.code))
	} else {
		jmp := -1
		if thenC {
			jmp = c.emit(instr{op: opJump, dst: c.edges(1)}, noTally)
		}
		c.code[jz].c = int32(len(c.code))
		stE = cloneTypes(st)
		if elseC, err = c.stmts(x.Else, stE); err != nil {
			return false, err
		}
		if jmp >= 0 {
			c.code[jmp].c = int32(len(c.code))
		}
	}

	switch {
	case thenC && elseC:
		if err := c.agree(stT, stE, "after an if"); err != nil {
			return false, err
		}
		for i := range st { // stE may alias st
			if stE[i] == 0 {
				st[i] = 0
			} else {
				st[i] = stT[i]
			}
		}
	case thenC:
		copy(st, stT) // else always breaks: only the then path continues
	case elseC:
		copy(st, stE)
	default:
		return false, nil // both branches break: nothing continues past the if
	}
	return true, nil
}

// promote converts two lowered operands of an arithmetic or comparison
// operator to the type it runs in. That is the type t of its result,
// Promote(a, b), except where an i32 meets an f32: the interpreter evaluates
// that on the exact float64 of the integer and rounds once, so unless the
// integer is a constant float32 holds exactly, the operation runs in f64.
func (c *compiler) promote(oa, ob operand) (_, _ operand, run, t Type) {
	t = Promote(oa.t, ob.t)
	run = t
	if t == F32 && oa.t != ob.t {
		run = F64
		i := &oa
		if ob.t == I32 {
			i = &ob
		}
		if f := float64(int64(i.bits)); i.konst && float64(float32(f)) == f {
			*i, run = c.konst(F32, ws(float32(f))), F32
		}
	}
	return c.to(oa, run), c.to(ob, run), run, t
}

// binOp emits op on two lowered operands, converting them first as binEval
// would. Temporaries above mark are released before the destination is
// chosen, so the result may reuse an operand's register.
func (c *compiler) binOp(op BinOp, oa, ob operand, dst, mark int) operand {
	var run, t Type
	var tl tally
	if op.IsBitwise() {
		oa, ob = c.to(oa, I32), c.to(ob, I32)
		tl = classTally(arch.Bit, 1)
	} else {
		oa, ob, run, t = c.promote(oa, ob)
		tl = classTally(classOf(t), 1)
	}
	c.tmp = mark
	d := c.dest(dst)
	c.emit(instr{op: binOpcode(op, run), dst: d, a: oa.reg, b: ob.reg}, tl)
	switch {
	case op.IsCompare():
		t = I32
	case run != t:
		c.emit(instr{op: opRoundF32, dst: d, a: d}, noTally)
	}
	return operand{reg: d, t: t}
}

// hasLoad reports whether evaluating e can fault.
func hasLoad(e Expr) bool {
	switch x := e.(type) {
	case *LoadExpr:
		return true
	case *BinExpr:
		return hasLoad(x.A) || hasLoad(x.B)
	case *UnExpr:
		return hasLoad(x.A)
	case *CastExpr:
		return hasLoad(x.A)
	case *SelExpr:
		return hasLoad(x.Cond) || hasLoad(x.A) || hasLoad(x.B)
	}
	return false
}

// mad is a sum or difference with a product on one side, its three operands
// lowered in interpreter order.
type mad struct {
	op       BinOp // OpAdd or OpSub
	p, q, r  operand
	mulFirst bool // p·q op r rather than r op p·q
}

// matchMad recognises r ± p·q and p·q ± r and lowers the operands; ok is
// false when x is neither. In r ± p·q the interpreter multiplies and combines
// back to back; in p·q ± r it evaluates r in between, so that form only
// qualifies when r cannot fault — otherwise a fault in r would have to leave
// the multiply counted. A launch-invariant product in a thread expression is
// hoisted, not fused.
func (c *compiler) matchMad(x *BinExpr, st []vtype) (m mad, ok bool, err error) {
	if x.Op != OpAdd && x.Op != OpSub {
		return mad{}, false, nil
	}
	product := func(e Expr) *BinExpr {
		if b, _ := e.(*BinExpr); b != nil && b.Op == OpMul && (c.hoisting || !invariant(b)) {
			return b
		}
		return nil
	}
	m.op = x.Op
	mul, other := product(x.B), x.A
	if mul == nil {
		mul, other, m.mulFirst = product(x.A), x.B, true
		if mul == nil || hasLoad(other) {
			return mad{}, false, nil
		}
	}
	if !m.mulFirst {
		if m.r, err = c.expr(other, st, -1); err != nil {
			return mad{}, true, err
		}
	}
	if m.p, err = c.expr(mul.A, st, -1); err != nil {
		return mad{}, true, err
	}
	if m.q, err = c.expr(mul.B, st, -1); err != nil {
		return mad{}, true, err
	}
	if m.mulFirst {
		if m.r, err = c.expr(other, st, -1); err != nil {
			return mad{}, true, err
		}
	}
	return m, true, nil
}

// fused is madOpcode's entry for m, or 0: the operands must share one type.
func (m *mad) fused() opcode {
	if m.p.t != m.r.t || m.q.t != m.r.t {
		return 0
	}
	form := 0
	if !m.mulFirst {
		form = 1
	}
	if m.op == OpSub {
		form += 2
	}
	return madOpcode[m.r.t][form]
}

// unfused emits the multiply and the add or subtract of m one after the
// other: the operand types do not fit a fused opcode.
func (c *compiler) unfused(m mad, dst, mark int) operand {
	om := c.binOp(OpMul, m.p, m.q, -1, c.tmp)
	if m.mulFirst {
		return c.binOp(m.op, om, m.r, dst, mark)
	}
	return c.binOp(m.op, m.r, om, dst, mark)
}

// mulAdd lowers r ± p·q and p·q ± r, as one opMad* when the operands share a
// type that has one. ok is false when x is not such an expression.
func (c *compiler) mulAdd(x *BinExpr, st []vtype, dst int) (o operand, ok bool, err error) {
	mark := c.tmp
	m, ok, err := c.matchMad(x, st)
	if !ok || err != nil {
		return operand{}, ok, err
	}
	op := m.fused()
	if op == 0 {
		return c.unfused(m, dst, mark), true, nil
	}
	c.tmp = mark
	d := c.dest(dst)
	c.emit(instr{op: op, dst: d, a: m.p.reg, b: m.q.reg, c: int32(m.r.reg)}, classTally(classOf(m.r.t), 2))
	return operand{reg: d, t: m.r.t}, true, nil
}

// expr lowers an expression, returning its operand. With dst ≥ 0 the result
// is forced into that register (only the final emitted instruction writes it,
// so RHS reads of the same register see the old value, exactly like the
// interpreter's evaluate-then-assign order).
func (c *compiler) expr(e Expr, st []vtype, dst int) (operand, error) {
	if !c.hoisting && !isLeaf(e) && invariant(e) {
		return c.hoist(e, st, dst)
	}
	switch x := e.(type) {
	case *Const:
		var bits uint64
		switch x.T {
		case I32:
			bits = uint64(x.I)
		case F32:
			var ok bool
			if bits, ok = f32Word(x.F); !ok {
				return operand{}, unsupportedf("f32 constant %v is not float32-representable", x.F)
			}
		case F64:
			bits = wf(x.F)
		default:
			return operand{}, unsupportedf("constant of unknown type %v", x.T)
		}
		return c.place(c.konst(x.T, bits), dst), nil

	case *TIDExpr:
		return c.place(operand{reg: regTID, t: I32}, dst), nil

	case *NTExpr:
		return c.place(operand{reg: regNT, t: I32}, dst), nil

	case *ParamExpr:
		p := c.params[c.paramIdx[x.Name]]
		return c.place(operand{reg: p.reg, t: p.t}, dst), nil

	case *VarExpr:
		i, ok := c.vars[x.Name]
		if !ok || st[i] == 0 {
			return operand{}, unsupportedf("variable %q may be read before assignment", x.Name)
		}
		return c.place(operand{reg: c.varReg(i), t: Type(st[i] - 1)}, dst), nil

	case *BinExpr:
		if x.Op > OpShr {
			return operand{}, unsupportedf("unknown binary operator %v", x.Op)
		}
		if o, ok, err := c.mulAdd(x, st, dst); ok {
			return o, err
		}
		mark := c.tmp
		oa, err := c.expr(x.A, st, -1)
		if err != nil {
			return operand{}, err
		}
		ob, err := c.expr(x.B, st, -1)
		if err != nil {
			return operand{}, err
		}
		return c.binOp(x.Op, oa, ob, dst, mark), nil

	case *UnExpr:
		if x.Op > OpCos {
			return operand{}, unsupportedf("unknown unary operator %v", x.Op)
		}
		mark := c.tmp
		oa, err := c.expr(x.A, st, -1)
		if err != nil {
			return operand{}, err
		}
		var tl tally
		switch {
		case x.Op == OpNot:
			oa = c.to(oa, I32)
			tl = classTally(arch.Bit, 1)
		case oa.t == I32 && x.Op >= OpFloor:
			// Math intrinsics on ints promote to f32.
			oa = c.to(oa, F32)
			fallthrough
		default:
			tl = classTally(classOf(oa.t), x.Op.IntrinsicCost())
		}
		c.tmp = mark
		d := c.dest(dst)
		c.emit(instr{op: unOpcode(x.Op, oa.t), dst: d, a: oa.reg}, tl)
		return operand{reg: d, t: oa.t}, nil

	case *LoadExpr:
		slot, elem, err := c.bufSlot(x.Buf)
		if err != nil {
			return operand{}, err
		}
		mark := c.tmp
		tl := classTally(arch.Ld, 1)
		tl.ld = int16(slot)
		var oi operand
		var m mad
		isMad := false
		if sum, _ := x.Idx.(*BinExpr); sum != nil && sum.Op == OpAdd && !invariant(sum) {
			if m, isMad, err = c.matchMad(sum, st); err != nil {
				return operand{}, err
			}
		}
		switch {
		case isMad && m.fused() == opMadI && ldMadOpcode[elem] != 0:
			// The index is computed, and counted, before it is checked.
			tl.n[arch.Int], tl.keep[arch.Int] = 2, 2
			c.tmp = mark
			d := c.dest(dst)
			c.emit(instr{op: ldMadOpcode[elem], dst: d, a: m.p.reg, b: m.q.reg, c: slot<<8 | int32(m.r.reg)}, tl)
			return operand{reg: d, t: elem}, nil
		case isMad:
			oi = c.unfused(m, -1, mark)
		default:
			if oi, err = c.expr(x.Idx, st, -1); err != nil {
				return operand{}, err
			}
		}
		oi = c.to(oi, I32)
		c.tmp = mark
		d := c.dest(dst)
		c.emit(instr{op: opLdI32 + opcode(elem), dst: d, a: oi.reg, c: slot}, tl)
		return operand{reg: d, t: elem}, nil

	case *CastExpr:
		if x.T > F64 {
			return operand{}, unsupportedf("cast to unknown type %v", x.T)
		}
		mark := c.tmp
		oa, err := c.expr(x.A, st, -1)
		if err != nil {
			return operand{}, err
		}
		c.tmp = mark
		return c.convert(cvtOpcode[oa.t][x.T], oa, x.T, classTally(arch.Int, 1), int(c.dest(dst))), nil // cvt

	case *SelExpr:
		mark := c.tmp
		oc, err := c.expr(x.Cond, st, -1)
		if err != nil {
			return operand{}, err
		}
		oa, err := c.expr(x.A, st, -1)
		if err != nil {
			return operand{}, err
		}
		ob, err := c.expr(x.B, st, -1)
		if err != nil {
			return operand{}, err
		}
		if oa.t != ob.t {
			return operand{}, unsupportedf("select arms have types %v and %v", oa.t, ob.t)
		}
		c.tmp = mark
		d := c.dest(dst)
		c.emit(instr{op: opSelI + opcode(oc.t), dst: d, a: oc.reg, b: oa.reg, c: int32(ob.reg)}, classTally(arch.Int, 1)) // predicated select
		return operand{reg: d, t: oa.t}, nil

	case nil:
		return operand{}, unsupportedf("nil expression")
	default:
		return operand{}, unsupportedf("unknown expression %T", e)
	}
}

// segments partitions the finished code into straight-line segments, sums
// the instruction tallies of each and lists the edges into each.
func (c *compiler) segments() []segment {
	// landing[pc] lists the edges arriving at pc; a non-nil entry starts a
	// segment.
	landing := make([][]uint8, len(c.code)+1)
	land := func(pc int, edge uint8) { landing[pc] = append(landing[pc], edge) }
	land(0, 0)
	for pc, ins := range c.code {
		switch {
		case ins.op == opHalt:
			landing[pc+1] = []uint8{}
		case ins.op == opJump:
			land(int(ins.c), ins.dst)
			if landing[pc+1] == nil {
				landing[pc+1] = []uint8{} // unreachable but for jumps
			}
		case ins.op == opForInit:
			lp := c.loops[ins.c]
			land(int(lp.end), lp.edge)
			land(pc+1, lp.edge+1)
		case ins.op == opForNext:
			land(int(ins.c), ins.b)
			land(pc+1, ins.b+1)
		case ins.op.isControl(): // conditional branches
			land(int(ins.c), ins.dst)
			land(pc+1, ins.dst+1)
		}
	}
	var segs []segment
	for pc := 0; pc < len(c.code); {
		sg := segment{
			start:  pc,
			in:     landing[pc],
			fallIn: pc > 0 && !c.code[pc-1].op.isControl(),
			loop:   -1,
			ld:     make([]int64, len(c.bufs)),
			st:     make([]int64, len(c.bufs)),
		}
		if slot, ok := c.bodyHead[pc]; ok {
			sg.loop = slot
			sg.n[arch.Int] += 2
			sg.n[arch.Branch]++
		}
		for ok := true; ok; ok = landing[pc] == nil {
			t := &c.tallies[pc]
			for cl, n := range t.n {
				sg.n[cl] += int64(n)
			}
			if t.ld >= 0 {
				sg.ld[t.ld]++
			}
			if t.st >= 0 {
				sg.st[t.st]++
			}
			pc++
		}
		sg.end = pc
		segs = append(segs, sg)
	}
	return segs
}
