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
//     Registers are untyped 8-byte words: i32 values are held as int64 (as
//     Value.I is), f32 and f64 values as float64 bits (as Value.F is).
//   - Operands. Constants live in a constant pool at the top of the register
//     file, parameters in registers filled once per launch (see bind in
//     program.go), so neither costs an instruction; tid and nthreads are
//     registers too. Buffers resolve to slots whose typed slice headers are
//     bound per launch.
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
//   - a kernel needing more than 256 registers or 256 control-flow edges.
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

	// Comparisons yield i32 0/1. f32 and f64 compare alike (both are held as
	// float64), so there is one float block.
	opLTI
	opLEI
	opGTI
	opGEI
	opEQI
	opNEI
	opLTF
	opLEF
	opGTF
	opGEF
	opEQF
	opNEF

	// Bitwise, integer operands only (float operands are converted first).
	opAndI
	opOrI
	opXorI
	opShlI
	opShrI

	// a·b + c on integers: the index arithmetic of nearly every kernel
	// (row·k + kk, tid + j·nthreads), fused.
	opMadI

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

	// Conversions: Value.Float of an i32, Convert(F32) of an i32, Value.Int
	// of a float (truncation toward zero, not wrapped), Convert(F32) of an f64.
	opCvtIF
	opCvtIF32
	opCvtFI
	opRoundF32

	// Select on an integer or a float condition.
	opSelI
	opSelF

	// Memory. Loads and stores check their index; opChkSt/opChkAt are the
	// early bounds check the interpreter performs before it evaluates the
	// value operand.
	opLdI32
	opLdF32
	opLdF64
	opChkSt
	opChkAt
	opStI32
	opStF32
	opStF64
	opAtI32
	opAtF32
	opAtF64

	// Control. opJn* are fused compare-and-branch: jump when the comparison
	// is false, in the order of the comparison blocks above.
	opJump
	opJzI
	opJzF
	opJnLTI
	opJnLEI
	opJnGTI
	opJnGEI
	opJnEQI
	opJnNEI
	opJnLTF
	opJnLEF
	opJnGTF
	opJnGEF
	opJnEQF
	opJnNEF
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
		if t == I32 {
			return opLTI + opcode(op-OpLT)
		}
		return opLTF + opcode(op-OpLT)
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

// instr is one lowered instruction: eight bytes. dst, a and b index the
// 256-word register file, so no access needs a bounds check; c is a jump
// target, a buffer slot, a loop slot (opForInit) or a fourth register
// (opSel*). Control instructions number their outgoing edges instead of
// naming a destination register: the edge taken by jumping is dst (b for
// opForNext, loopSlot.edge for opForInit), the fall-through edge the next.
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
func (w word) r() uint8    { return uint8(w >> 32) } // c as a fourth register
func (w word) target() int { return int(int32(w >> 32)) }

// tally is what one executed instruction adds to the statistics.
type tally struct {
	n      [arch.NumClasses]uint8
	ld, st int16 // buffer slot whose load/store count it bumps, or -1
}

var noTally = tally{ld: -1, st: -1}

func classTally(c arch.InstrClass, n int) tally {
	t := noTally
	t.n[c] = uint8(n)
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

	consts  []uint64 // constant pool; consts[i] lives in register nRegs-1-i
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
// registers per loop, expression temporaries growing up — and the constant
// pool growing down from the top.
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

	vars     map[string]int // variable name → index; register = varBase + index
	varNames []string       // index → name
	varBase  int

	hiddenNext int // next hidden loop-state register pair
	tmpBase    int // first expression-temporary register
	tmp        int // live temporaries
	maxTmp     int // temporary high-water mark

	constRegs map[uint64]uint8
	consts    []uint64

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
	if need := c.tmpBase + c.maxTmp + len(c.consts); need > nRegs {
		return nil, unsupportedf("kernel needs %d registers (max %d)", need, nRegs)
	}
	if c.nEdges > nRegs {
		return nil, unsupportedf("kernel has %d control-flow edges (max %d)", c.nEdges, nRegs)
	}
	src := *k
	code := make([]word, len(c.code))
	for i, ins := range c.code {
		code[i] = ins.word()
	}
	return &Program{
		src:     &src,
		code:    code,
		tallies: c.tallies,
		segs:    c.segments(),
		consts:  c.consts,
		params:  c.params,
		bufs:    c.bufs,
		loops:   c.loops,
		nEdges:  c.nEdges,
		atomics: stmtsHaveAtomics(k.Body),
	}, nil
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

// konst interns a constant word in the pool and returns it as an operand.
func (c *compiler) konst(t Type, bits uint64) operand {
	r, ok := c.constRegs[bits]
	if !ok {
		r = uint8(nRegs - 1 - len(c.consts))
		c.constRegs[bits] = r
		c.consts = append(c.consts, bits)
	}
	return operand{reg: r, t: t, konst: true, bits: bits}
}

func (c *compiler) emit(i instr, t tally) int {
	c.code = append(c.code, i)
	c.tallies = append(c.tallies, t)
	return len(c.code) - 1
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

// convert emits op (one of the opCvt*/opRoundF32 conversions) on o, folding
// it when o is a constant. The result has type t.
func (c *compiler) convert(op opcode, o operand, t Type, tl tally, dst int) operand {
	if o.konst && dst < 0 && tl == noTally {
		return c.konst(t, convertWord(op, o.bits))
	}
	d := c.dest(dst)
	c.emit(instr{op: op, dst: d, a: o.reg}, tl)
	return operand{reg: d, t: t}
}

// asInt is Value.Int: floats truncate toward zero.
func (c *compiler) asInt(o operand) operand {
	if o.t == I32 {
		return o
	}
	return c.convert(opCvtFI, o, I32, noTally, -1)
}

// asFloat is Value.Float: the result keeps o's type tag for floats and is an
// exact float64 for integers, typed t by the caller.
func (c *compiler) asFloat(o operand, t Type) operand {
	if o.t != I32 {
		return o
	}
	return c.convert(opCvtIF, o, t, noTally, -1)
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
	oi = c.asInt(oi)
	if !isLeaf(val) {
		c.emit(instr{op: chk, a: oi.reg, c: slot}, noTally)
	}
	ov, err := c.expr(val, st, -1)
	if err != nil {
		return err
	}
	// Buffer.Set / Buffer.AddAt convert through Value.Int or Value.Float.
	if elem == I32 {
		ov = c.asInt(ov)
	} else {
		ov = c.asFloat(ov, elem)
	}
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
	os = c.asInt(os)
	oe, err := c.expr(x.End, st, -1)
	if err != nil {
		return err
	}
	oe = c.asInt(oe)

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
		oa, ob, t := c.promote(oa, ob)
		tl := classTally(classOf(t), 1)
		tl.n[arch.Branch]++
		op := opJnLTI + opcode(binOpcode(cmp.Op, t)-opLTI)
		jz = c.emit(instr{op: op, dst: c.edges(2), a: oa.reg, b: ob.reg}, tl)
	} else {
		oc, err := c.expr(x.Cond, st, -1)
		if err != nil {
			return false, err
		}
		op := opJzI
		if oc.t != I32 {
			op = opJzF
		}
		jz = c.emit(instr{op: op, dst: c.edges(2), a: oc.reg}, classTally(arch.Branch, 1))
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
// operator to their promoted type.
func (c *compiler) promote(oa, ob operand) (operand, operand, Type) {
	t := Promote(oa.t, ob.t)
	if t != I32 {
		oa, ob = c.asFloat(oa, t), c.asFloat(ob, t)
	}
	return oa, ob, t
}

// binOp emits op on two lowered operands, converting them first as binEval
// would. Temporaries above mark are released before the destination is
// chosen, so the result may reuse an operand's register.
func (c *compiler) binOp(op BinOp, oa, ob operand, dst, mark int) operand {
	var t Type
	var tl tally
	if op.IsBitwise() {
		oa, ob, t = c.asInt(oa), c.asInt(ob), I32
		tl = classTally(arch.Bit, 1)
	} else {
		oa, ob, t = c.promote(oa, ob)
		tl = classTally(classOf(t), 1)
	}
	c.tmp = mark
	d := c.dest(dst)
	c.emit(instr{op: binOpcode(op, t), dst: d, a: oa.reg, b: ob.reg}, tl)
	if op.IsCompare() {
		t = I32
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

// mulAdd lowers the sums r + p·q and p·q + r, fusing the two operations into
// opMadI when all three operands are integers. ok is false when x is not such
// a sum. In r + p·q the interpreter multiplies and adds back to back; in
// p·q + r it evaluates r in between, so that form only qualifies when r
// cannot fault — otherwise a fault in r would have to leave the multiply
// counted.
func (c *compiler) mulAdd(x *BinExpr, st []vtype, dst int) (o operand, ok bool, err error) {
	if x.Op != OpAdd {
		return operand{}, false, nil
	}
	mul, _ := x.B.(*BinExpr)
	other, mulFirst := x.A, false
	if mul == nil || mul.Op != OpMul {
		mul, _ = x.A.(*BinExpr)
		other, mulFirst = x.B, true
		if mul == nil || mul.Op != OpMul || hasLoad(other) {
			return operand{}, false, nil
		}
	}
	mark := c.tmp
	var or operand
	if !mulFirst {
		if or, err = c.expr(other, st, -1); err != nil {
			return operand{}, true, err
		}
	}
	op, err := c.expr(mul.A, st, -1)
	if err != nil {
		return operand{}, true, err
	}
	oq, err := c.expr(mul.B, st, -1)
	if err != nil {
		return operand{}, true, err
	}
	if mulFirst {
		if or, err = c.expr(other, st, -1); err != nil {
			return operand{}, true, err
		}
	}
	if op.t == I32 && oq.t == I32 && or.t == I32 {
		c.tmp = mark
		d := c.dest(dst)
		c.emit(instr{op: opMadI, dst: d, a: op.reg, b: oq.reg, c: int32(or.reg)}, classTally(arch.Int, 2))
		return operand{reg: d, t: I32}, true, nil
	}
	om := c.binOp(OpMul, op, oq, -1, c.tmp)
	if mulFirst {
		return c.binOp(OpAdd, om, or, dst, mark), true, nil
	}
	return c.binOp(OpAdd, or, om, dst, mark), true, nil
}

// expr lowers an expression, returning its operand. With dst ≥ 0 the result
// is forced into that register (only the final emitted instruction writes it,
// so RHS reads of the same register see the old value, exactly like the
// interpreter's evaluate-then-assign order).
func (c *compiler) expr(e Expr, st []vtype, dst int) (operand, error) {
	switch x := e.(type) {
	case *Const:
		if x.T > F64 {
			return operand{}, unsupportedf("constant of unknown type %v", x.T)
		}
		bits := uint64(x.I)
		if x.T != I32 {
			bits = math.Float64bits(x.F)
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
			oa = c.asInt(oa)
			tl = classTally(arch.Bit, 1)
		case oa.t == I32 && x.Op >= OpFloor:
			// Math intrinsics on ints promote to f32.
			oa = c.convert(opCvtIF32, oa, F32, noTally, -1)
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
		oi, err := c.expr(x.Idx, st, -1)
		if err != nil {
			return operand{}, err
		}
		oi = c.asInt(oi)
		c.tmp = mark
		d := c.dest(dst)
		tl := classTally(arch.Ld, 1)
		tl.ld = int16(slot)
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
		// Value.Convert, specialised: the value is unchanged when the types
		// are equal and when an f32 widens to f64.
		op := opMove
		switch {
		case oa.t == x.T:
		case x.T == I32:
			op = opCvtFI
		case x.T == F32 && oa.t == I32:
			op = opCvtIF32
		case x.T == F32:
			op = opRoundF32
		case oa.t == I32:
			op = opCvtIF
		}
		return c.convert(op, oa, x.T, classTally(arch.Int, 1), int(c.dest(dst))), nil // cvt

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
		op := opSelI
		if oc.t != I32 {
			op = opSelF
		}
		c.emit(instr{op: op, dst: d, a: oc.reg, b: oa.reg, c: int32(ob.reg)}, classTally(arch.Int, 1)) // predicated select
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
