// Package kpl implements the Kernel Programming Language: a small, typed,
// data-parallel kernel representation with CUDA-like semantics (one program
// executed by N threads, each addressing buffers by thread index).
//
// A kpl.Kernel plays three roles in the ΣVP reproduction:
//
//  1. It is the *guest binary* of a GPU application: the same kernel runs
//     unmodified on the GPU-emulation back end (interpreted, slow — the
//     paper's baseline) and on the ΣVP back end (dispatched to the host-GPU
//     model — the paper's contribution).
//  2. Interpreting it yields exact dynamic per-class instruction counts,
//     which is how the paper's Profiler obtains execution profiles and how
//     iteration counts λ are measured (paper footnote 2: dynamically
//     instrumented PTX).
//  3. Static analysis over its block structure yields the per-block
//     instruction counts µ of Eq. 1 (see internal/kir).
//
// Two engines execute a kernel. The tree-walking interpreter (interp.go) is
// the reference semantics and the paper's emulation baseline. The compiled
// engine (compile.go, program.go) decides every type at compile time, binds
// parameters and buffers once per launch, and leaves the per-thread loop
// typed arithmetic on 8-byte registers; ExecAll, ExecRange, ExecBlocks and
// SampleStats use it whenever the compiler can prove the kernel's types and
// the launch's bindings agree with the declarations, and the interpreter
// otherwise. Nothing selects between them and no caller can tell which ran:
// buffers, statistics and error text are bit-identical.
package kpl

import "fmt"

// Type is the scalar element type of the language.
type Type uint8

// Scalar types.
const (
	I32 Type = iota // 32-bit integer (held as int64 internally)
	F32             // single-precision float
	F64             // double-precision float
)

func (t Type) String() string {
	switch t {
	case I32:
		return "i32"
	case F32:
		return "f32"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Size returns the size of the type in bytes, as laid out in device memory.
func (t Type) Size() int {
	switch t {
	case F64:
		return 8
	default:
		return 4
	}
}

// Promote returns the result type of a binary arithmetic operation.
func Promote(a, b Type) Type {
	if a == F64 || b == F64 {
		return F64
	}
	if a == F32 || b == F32 {
		return F32
	}
	return I32
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Cmp* yield i32 0/1; And/Or/Xor/Shl/Shr are bitwise and
// require integer operands.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpMin
	OpMax
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
)

var binNames = [...]string{
	"add", "sub", "mul", "div", "mod", "min", "max",
	"lt", "le", "gt", "ge", "eq", "ne",
	"and", "or", "xor", "shl", "shr",
}

func (o BinOp) String() string {
	if int(o) < len(binNames) {
		return binNames[o]
	}
	return fmt.Sprintf("BinOp(%d)", uint8(o))
}

// IsCompare reports whether the operator is a comparison.
func (o BinOp) IsCompare() bool { return o >= OpLT && o <= OpNE }

// IsBitwise reports whether the operator is a bitwise/shift operation.
func (o BinOp) IsBitwise() bool { return o >= OpAnd && o <= OpShr }

// UnOp enumerates unary operators and math intrinsics.
type UnOp uint8

// Unary operators. Transcendental intrinsics expand to several machine
// instructions; see IntrinsicCost.
const (
	OpNeg UnOp = iota
	OpNot      // bitwise not (integer)
	OpAbs
	OpFloor
	OpSqrt
	OpRsqrt
	OpExp
	OpLog
	OpSin
	OpCos
)

var unNames = [...]string{"neg", "not", "abs", "floor", "sqrt", "rsqrt", "exp", "log", "sin", "cos"}

func (o UnOp) String() string {
	if int(o) < len(unNames) {
		return unNames[o]
	}
	return fmt.Sprintf("UnOp(%d)", uint8(o))
}

// IntrinsicCost returns the number of machine instructions one evaluation of
// the operator contributes (special-function units expand transcendental
// intrinsics into instruction sequences).
func (o UnOp) IntrinsicCost() int {
	switch o {
	case OpSqrt, OpRsqrt:
		return 4
	case OpExp, OpLog:
		return 8
	case OpSin, OpCos:
		return 10
	default:
		return 1
	}
}

// Expr is a side-effect-free expression node.
type Expr interface{ exprNode() }

// Const is a typed literal.
type Const struct {
	T Type
	F float64 // value when T is F32/F64
	I int64   // value when T is I32
}

// TIDExpr evaluates to the global thread index (i32).
type TIDExpr struct{}

// NTExpr evaluates to the total number of threads in the launch (i32).
type NTExpr struct{}

// ParamExpr reads a scalar launch parameter by name.
type ParamExpr struct{ Name string }

// VarExpr reads a thread-local variable.
type VarExpr struct{ Name string }

// BinExpr applies a binary operator. Operand types are promoted; comparisons
// yield i32; bitwise operators require i32 operands.
type BinExpr struct {
	Op   BinOp
	A, B Expr
}

// UnExpr applies a unary operator or intrinsic.
type UnExpr struct {
	Op UnOp
	A  Expr
}

// LoadExpr reads Buf[Idx]; its type is the buffer's element type.
type LoadExpr struct {
	Buf string
	Idx Expr
}

// CastExpr converts A to type T.
type CastExpr struct {
	T Type
	A Expr
}

// SelExpr is a branch-free select: Cond != 0 ? A : B (predicated execution).
type SelExpr struct {
	Cond, A, B Expr
}

func (*Const) exprNode()     {}
func (*TIDExpr) exprNode()   {}
func (*NTExpr) exprNode()    {}
func (*ParamExpr) exprNode() {}
func (*VarExpr) exprNode()   {}
func (*BinExpr) exprNode()   {}
func (*UnExpr) exprNode()    {}
func (*LoadExpr) exprNode()  {}
func (*CastExpr) exprNode()  {}
func (*SelExpr) exprNode()   {}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// LetStmt declares or reassigns a thread-local variable.
type LetStmt struct {
	Name string
	E    Expr
}

// StoreStmt writes Buf[Idx] = Val.
type StoreStmt struct {
	Buf      string
	Idx, Val Expr
}

// AtomicAddStmt performs Buf[Idx] += Val atomically (well-defined under
// concurrent emulation; the sequential interpreter applies it directly).
type AtomicAddStmt struct {
	Buf      string
	Idx, Val Expr
}

// ForStmt runs Body with Var = Start .. End-1. End is re-evaluated once at
// entry (counted loops, the paper's program blocks).
type ForStmt struct {
	Var        string
	Start, End Expr
	Body       []Stmt

	// Label identifies the loop as a program block for µ/λ bookkeeping. It
	// must be unique within a kernel; Validate assigns missing labels.
	Label string
}

// IfStmt executes Then when Cond != 0, Else otherwise.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt

	// TakenProb optionally annotates the static probability that the branch
	// is taken, used by static µ analysis when no dynamic profile exists.
	// Zero means "unknown" (treated as 0.5).
	TakenProb float64
}

// BreakStmt exits the innermost enclosing loop (data-dependent iteration
// counts, e.g. Mandelbrot escape).
type BreakStmt struct{}

func (*LetStmt) stmtNode()       {}
func (*StoreStmt) stmtNode()     {}
func (*AtomicAddStmt) stmtNode() {}
func (*ForStmt) stmtNode()       {}
func (*IfStmt) stmtNode()        {}
func (*BreakStmt) stmtNode()     {}

// AccessPattern classifies how a kernel addresses a buffer, consumed by the
// probabilistic data-cache model (internal/cachemodel).
type AccessPattern uint8

// Access patterns.
const (
	AccessSeq       AccessPattern = iota // consecutive threads touch consecutive elements
	AccessStrided                        // constant stride larger than a cache line
	AccessRandom                         // data-dependent, effectively random in the working set
	AccessBroadcast                      // all threads read the same small region
)

func (a AccessPattern) String() string {
	switch a {
	case AccessSeq:
		return "seq"
	case AccessStrided:
		return "strided"
	case AccessRandom:
		return "random"
	case AccessBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("AccessPattern(%d)", uint8(a))
}

// BufDecl declares a device buffer parameter of a kernel.
type BufDecl struct {
	Name   string
	Elem   Type
	Access AccessPattern
	Stride int // elements between consecutive accesses (AccessStrided)

	// L2Fraction is the fraction of the kernel's accesses to this buffer
	// that reach the L2 cache; the rest hit on-chip staging (shared memory,
	// L1, registers) the way tiled CUDA kernels are written. Zero means
	// unstated and is treated as 1 (every access reaches L2).
	L2Fraction float64

	ReadOnly bool
}

// ParamDecl declares a scalar launch parameter.
type ParamDecl struct {
	Name string
	T    Type
}

// Kernel is a complete kernel program.
type Kernel struct {
	Name   string
	Params []ParamDecl
	Bufs   []BufDecl
	Body   []Stmt
}

// Buf returns the declaration of the named buffer, or nil.
func (k *Kernel) Buf(name string) *BufDecl {
	for i := range k.Bufs {
		if k.Bufs[i].Name == name {
			return &k.Bufs[i]
		}
	}
	return nil
}

// Param returns the declaration of the named parameter, or nil.
func (k *Kernel) Param(name string) *ParamDecl {
	for i := range k.Params {
		if k.Params[i].Name == name {
			return &k.Params[i]
		}
	}
	return nil
}
