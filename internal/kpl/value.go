package kpl

import (
	"fmt"
	"math"
)

// Value is a dynamically-typed scalar produced by expression evaluation.
// Integers live in I; floats live in F.
type Value struct {
	T Type
	F float64
	I int64
}

// IntVal wraps an i32 value.
func IntVal(v int64) Value { return Value{T: I32, I: v} }

// F32Val wraps an f32 value (stored at float32 precision).
func F32Val(v float64) Value { return Value{T: F32, F: float64(float32(v))} }

// F64Val wraps an f64 value.
func F64Val(v float64) Value { return Value{T: F64, F: v} }

// Float returns the value as float64 regardless of type.
func (v Value) Float() float64 {
	if v.T == I32 {
		return float64(v.I)
	}
	return v.F
}

// Int returns the value as int64, truncating floats toward zero.
func (v Value) Int() int64 {
	if v.T == I32 {
		return v.I
	}
	return int64(v.F)
}

// Bool reports whether the value is non-zero.
func (v Value) Bool() bool {
	if v.T == I32 {
		return v.I != 0
	}
	return v.F != 0
}

// Convert returns the value converted to type t, applying f32 rounding.
func (v Value) Convert(t Type) Value {
	if v.T == t {
		return v
	}
	switch t {
	case I32:
		return IntVal(v.Int())
	case F32:
		return F32Val(v.Float())
	default:
		return F64Val(v.Float())
	}
}

func (v Value) String() string {
	if v.T == I32 {
		return fmt.Sprintf("%d:i32", v.I)
	}
	return fmt.Sprintf("%g:%s", v.F, v.T)
}

// Buffer is a typed view over a region of device memory, as bound to one
// kernel launch. Exactly one backing slice is non-nil, matching Elem.
type Buffer struct {
	Elem Type
	F32s []float32
	F64s []float64
	I32s []int32

	// written, when armed (see shadowOf), records which elements the
	// compiled engine's stores and atomics touched — the block-parallel
	// engine uses it to merge per-worker shadow copies back in block order.
	written []bool
}

// applyWrites copies every element src recorded as written into b. Both
// buffers must share element type and length.
func (b *Buffer) applyWrites(src *Buffer) {
	switch b.Elem {
	case F32:
		for i, w := range src.written {
			if w {
				b.F32s[i] = src.F32s[i]
			}
		}
	case F64:
		for i, w := range src.written {
			if w {
				b.F64s[i] = src.F64s[i]
			}
		}
	default:
		for i, w := range src.written {
			if w {
				b.I32s[i] = src.I32s[i]
			}
		}
	}
}

// NewBuffer allocates a zeroed buffer of n elements of type t.
func NewBuffer(t Type, n int) *Buffer {
	b := &Buffer{Elem: t}
	switch t {
	case F32:
		b.F32s = make([]float32, n)
	case F64:
		b.F64s = make([]float64, n)
	default:
		b.I32s = make([]int32, n)
	}
	return b
}

// Len returns the element count.
func (b *Buffer) Len() int {
	switch b.Elem {
	case F32:
		return len(b.F32s)
	case F64:
		return len(b.F64s)
	default:
		return len(b.I32s)
	}
}

// At returns element i as a Value.
func (b *Buffer) At(i int) Value {
	switch b.Elem {
	case F32:
		return Value{T: F32, F: float64(b.F32s[i])}
	case F64:
		return Value{T: F64, F: b.F64s[i]}
	default:
		return Value{T: I32, I: int64(b.I32s[i])}
	}
}

// Set stores v (converted to the element type) at element i.
func (b *Buffer) Set(i int, v Value) {
	switch b.Elem {
	case F32:
		b.F32s[i] = float32(v.Float())
	case F64:
		b.F64s[i] = v.Float()
	default:
		b.I32s[i] = int32(v.Int())
	}
}

// AddAt performs element i += v, used by AtomicAdd.
func (b *Buffer) AddAt(i int, v Value) {
	switch b.Elem {
	case F32:
		b.F32s[i] = addF32(b.F32s[i], float32(v.Float()))
	case F64:
		b.F64s[i] = addF64(b.F64s[i], v.Float())
	default:
		b.I32s[i] += int32(v.Int())
	}
}

// Bytes returns the byte length of the buffer in device memory.
func (b *Buffer) Bytes() int { return b.Len() * b.Elem.Size() }

// EvalBin applies a binary operator to promoted operands. It is exported for
// constant folding in internal/kir; interpretation uses it internally.
func EvalBin(op BinOp, a, b Value) Value { return binEval(op, a, b) }

// EvalUn applies a unary operator. It is exported for constant folding in
// internal/kir; interpretation uses it internally.
func EvalUn(op UnOp, a Value) Value { return unEval(op, a) }

// A float sum or product of two NaNs keeps the payload of one of them, IEEE
// 754 does not say which, and the Go compiler is free to commute the operands
// of + and * differently at every place they are written. The interpreter and
// the compiled engine must agree bit for bit, so both send the (rare) NaN
// result through nanAdd/nanMul: one non-inlined body, one operand order.

//go:noinline
func nanAdd(x, y float64) float64 { return x + y }

//go:noinline
func nanMul(x, y float64) float64 { return x * y }

func addF64(x, y float64) float64 {
	r := x + y
	if r != r {
		r = nanAdd(x, y)
	}
	return r
}

// The product is rounded by an explicit conversion: where the engine adds to
// it in the same expression (opMad*), a GOARCH with a fused multiply-add must
// not round once.
func mulF64(x, y float64) float64 {
	r := float64(x * y)
	if r != r {
		r = nanMul(x, y)
	}
	return r
}

// addF32 is the single-precision sum; widening and narrowing a NaN keep its
// payload.
func addF32(x, y float32) float32 {
	r := x + y
	if r != r {
		r = float32(nanAdd(float64(x), float64(y)))
	}
	return r
}

// mulF32 is the single-precision product, rounded before use as mulF64's is.
func mulF32(x, y float32) float32 {
	r := float32(x * y)
	if r != r {
		r = float32(nanMul(float64(x), float64(y)))
	}
	return r
}

// binEval applies op to promoted operands, returning the result value.
func binEval(op BinOp, a, b Value) Value {
	if op.IsBitwise() {
		x, y := a.Int(), b.Int()
		var r int64
		switch op {
		case OpAnd:
			r = x & y
		case OpOr:
			r = x | y
		case OpXor:
			r = x ^ y
		case OpShl:
			r = x << uint(y&63)
		case OpShr:
			r = x >> uint(y&63)
		}
		return IntVal(int64(int32(r)))
	}
	t := Promote(a.T, b.T)
	if op.IsCompare() {
		var res bool
		if t == I32 {
			x, y := a.Int(), b.Int()
			switch op {
			case OpLT:
				res = x < y
			case OpLE:
				res = x <= y
			case OpGT:
				res = x > y
			case OpGE:
				res = x >= y
			case OpEQ:
				res = x == y
			case OpNE:
				res = x != y
			}
		} else {
			x, y := a.Float(), b.Float()
			switch op {
			case OpLT:
				res = x < y
			case OpLE:
				res = x <= y
			case OpGT:
				res = x > y
			case OpGE:
				res = x >= y
			case OpEQ:
				res = x == y
			case OpNE:
				res = x != y
			}
		}
		if res {
			return IntVal(1)
		}
		return IntVal(0)
	}
	if t == I32 {
		x, y := a.Int(), b.Int()
		var r int64
		switch op {
		case OpAdd:
			r = x + y
		case OpSub:
			r = x - y
		case OpMul:
			r = x * y
		case OpDiv:
			if y == 0 {
				r = 0 // GPU-style quiet divide
			} else {
				r = x / y
			}
		case OpMod:
			if y == 0 {
				r = 0
			} else {
				r = x % y
			}
		case OpMin:
			if r = x; y < x {
				r = y
			}
		case OpMax:
			if r = x; y > x {
				r = y
			}
		}
		return IntVal(int64(int32(r)))
	}
	x, y := a.Float(), b.Float()
	var r float64
	switch op {
	case OpAdd:
		r = addF64(x, y)
	case OpSub:
		r = x - y
	case OpMul:
		r = mulF64(x, y)
	case OpDiv:
		r = x / y
	case OpMod:
		r = math.Mod(x, y)
	case OpMin:
		r = math.Min(x, y)
	case OpMax:
		r = math.Max(x, y)
	}
	if t == F32 {
		return F32Val(r)
	}
	return F64Val(r)
}

// unEval applies op to a.
func unEval(op UnOp, a Value) Value {
	if op == OpNot {
		return IntVal(int64(int32(^a.Int())))
	}
	if a.T == I32 {
		switch op {
		case OpNeg:
			return IntVal(-a.I)
		case OpAbs:
			if a.I < 0 {
				return IntVal(-a.I)
			}
			return a
		}
		// Math intrinsics on ints promote to f32.
		a = a.Convert(F32)
	}
	x := a.Float()
	var r float64
	switch op {
	case OpNeg:
		r = -x
	case OpAbs:
		r = math.Abs(x)
	case OpFloor:
		r = math.Floor(x)
	case OpSqrt:
		r = math.Sqrt(x)
	case OpRsqrt:
		r = 1 / math.Sqrt(x)
	case OpExp:
		r = math.Exp(x)
	case OpLog:
		r = math.Log(x)
	case OpSin:
		r = math.Sin(x)
	case OpCos:
		r = math.Cos(x)
	}
	if a.T == F32 {
		return F32Val(r)
	}
	return F64Val(r)
}
