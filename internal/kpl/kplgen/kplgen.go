// Package kplgen derives random — but always structurally valid — KPL
// kernels and launch environments from raw byte strings, for differential
// fuzzing of the compiled engine against the reference interpreter.
//
// Decode is total over non-empty inputs: every byte string yields a kernel
// that passes kpl.Validate, with structurally bounded loops (trip counts are
// clamped through a Mod by a small constant) so no input can hang the fuzzer.
// Runtime errors — out-of-range accesses, unbound parameters or buffers,
// reads of unassigned variables — are deliberately reachable: they must be
// bit-identical between the two engines too. So are the constructs the typed
// compiler refuses (variables with two types where paths meet, selects with
// unequal arms), but the generator leans toward kernels that compile — reads
// of assigned variables, select arms cast to one type — so that a healthy
// share of random kernels exercises the compiled engine.
//
// Encode is the lossy inverse used to seed the fuzz corpus from the real
// benchmark suite: it renames identifiers into the generator's namespace and
// clamps sizes to the generator's limits, so the decoded kernel resembles
// (but need not equal) the original. Self-consistency is what matters — the
// differential property is checked on the decoded kernel.
package kplgen

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/kpl"
)

// Generator limits. Small on purpose: tiny kernels shake out engine
// divergences faster, and small buffers make boundary errors likely.
const (
	maxParams  = 3
	maxBufs    = 4
	maxVars    = 8
	maxThreads = 96
	maxBufLen  = 24
	loopClamp  = 16 // loop bounds pass through Mod(·, loopClamp)
)

// cursor reads bytes, yielding zeros once the input is exhausted so that
// decoding is total.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) byte() byte {
	if c.i >= len(c.data) {
		return 0
	}
	b := c.data[c.i]
	c.i++
	return b
}

func (c *cursor) mod(n int) int { return int(c.byte()) % n }

// Scalars — constants, parameters, buffer elements — are small: a byte read as
// int8, quartered for the float types. The values where the engines'
// representations could part are not small, so the byte −128 escapes: the
// next byte indexes the edge table of the type.
const escape = -128

// The edge tables. An integer above 2^24 is one float32 does not hold, which
// matters where it meets an f32; MaxInt32 + 1 wraps. The float64 patterns tag
// constants and parameters of either float type — as f32, 0.1, 2^24 + 1, the
// float64 denormal, the payload in the low bits and the signalling NaN are
// values a float32 register cannot hold (the compiler must refuse the
// constant, bind the parameter) and the rest are ones it must hold exactly.
// The float32 patterns go into f32 buffers as they are, signalling NaNs
// included: a load must quiet them as the interpreter's widening does.
var (
	edgeInts = []int64{1<<24 + 1, -(1<<24 + 1), 1 << 24, math.MaxInt32, math.MinInt32, 1 << 30, 46341}
	edgeF64s = []uint64{
		math.Float64bits(0.1), math.Float64bits(1<<24 + 1), math.Float64bits(1 << 24),
		0x7FF0000000000000, 0xFFF0000000000000, 0x8000000000000000, // ±Inf, −0
		math.Float64bits(math.SmallestNonzeroFloat32), 1, // a float32 denormal, a float64 one
		math.Float64bits(math.MaxFloat32), math.Float64bits(1e300),
		0x7FF8000020000000, 0xFFF8000000000000, 0x7FF8000000000001, // quiet NaNs
		0x7FF4000000000000, 0xFFF0000000000001, // signalling NaNs
	}
	edgeF32s = []uint32{
		0x3DCCCCCD, 0x4B800000, 0x4B800001, // 0.1f, 2^24, 2^24 + 2
		0x7F800000, 0xFF800000, 0x80000000, // ±Inf, −0
		0x00000001, 0x007FFFFF, 0x7F7FFFFF, // denormals, MaxFloat32
		0x7FC00001, 0xFFC00000, // quiet NaNs
		0x7FA00000, 0xFF800001, // signalling NaNs
	}
)

// scalar reads a value of type t: its integer for I32, its float64 for the
// float types (for F32 not necessarily one float32 holds).
func (c *cursor) scalar(t kpl.Type) (int64, float64) {
	v := int8(c.byte())
	if v != escape {
		return int64(v), float64(v) / 4
	}
	if t == kpl.I32 {
		return edgeInts[c.mod(len(edgeInts))], 0
	}
	return 0, math.Float64frombits(edgeF64s[c.mod(len(edgeF64s))])
}

type decoder struct {
	c        *cursor
	k        *kpl.Kernel
	writable []string

	// defined under-approximates the compiler's definite-assignment set:
	// assignments inside loop bodies and conditional branches are scoped out
	// on exit, mirroring compile.go. Variable reads are biased toward it so
	// most generated kernels take the compiled path; reads outside it
	// exercise the undefined-variable error and the interpreter fallback.
	defined    []string
	definedIdx map[string]int
}

func (d *decoder) markDefined(name string) {
	if _, ok := d.definedIdx[name]; ok {
		return
	}
	d.definedIdx[name] = len(d.defined)
	d.defined = append(d.defined, name)
}

func (d *decoder) snapshot() int { return len(d.defined) }

func (d *decoder) restore(n int) {
	for _, name := range d.defined[n:] {
		delete(d.definedIdx, name)
	}
	d.defined = d.defined[:n]
}

// Decode derives a kernel and a launch environment from data. It reports
// false only for empty input.
func Decode(data []byte) (*kpl.Kernel, *kpl.Env, bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	return decode(&cursor{data: data})
}

func decode(c *cursor) (*kpl.Kernel, *kpl.Env, bool) {
	k := &kpl.Kernel{Name: "fuzz"}
	nParams := c.mod(maxParams + 1)
	for i := 0; i < nParams; i++ {
		k.Params = append(k.Params, kpl.ParamDecl{Name: fmt.Sprintf("p%d", i), T: kpl.Type(c.mod(3))})
	}
	nBufs := 1 + c.mod(maxBufs)
	for i := 0; i < nBufs; i++ {
		ro := i > 0 && c.mod(4) == 0 // buffer 0 is always a store target
		k.Bufs = append(k.Bufs, kpl.BufDecl{Name: fmt.Sprintf("b%d", i), Elem: kpl.Type(c.mod(3)), ReadOnly: ro})
	}
	d := &decoder{c: c, k: k, definedIdx: map[string]int{}}
	for _, b := range k.Bufs {
		if !b.ReadOnly {
			d.writable = append(d.writable, b.Name)
		}
	}
	k.Body = d.stmts(1+c.mod(6), 2, 0)
	if err := k.Validate(); err != nil {
		return nil, nil, false // unreachable by construction
	}
	return k, d.env(), true
}

func (d *decoder) stmts(n, depth, loopDepth int) []kpl.Stmt {
	out := make([]kpl.Stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.stmt(depth, loopDepth))
	}
	return out
}

func (d *decoder) stmt(depth, loopDepth int) kpl.Stmt {
	tag := d.c.mod(6)
	if depth <= 0 && (tag == 3 || tag == 4) {
		tag = 0 // no further nesting
	}
	if loopDepth == 0 && tag == 5 {
		tag = 1 // break is only valid inside a loop (Validate rejects it)
	}
	switch tag {
	case 0:
		v := d.varName()
		s := kpl.Let(v, d.expr(depth+1))
		d.markDefined(v)
		return s
	case 1:
		return kpl.Store(d.writableBuf(), d.expr(depth+1), d.expr(depth+1))
	case 2:
		return kpl.AtomicAdd(d.writableBuf(), d.expr(depth+1), d.expr(depth+1))
	case 3:
		v := d.varName()
		start := clampBound(d.expr(depth))
		end := clampBound(d.expr(depth))
		// The loop variable is definitely assigned only inside the body, and
		// body assignments do not escape a possibly-zero-trip loop.
		snap := d.snapshot()
		d.markDefined(v)
		body := d.stmts(1+d.c.mod(3), depth-1, loopDepth+1)
		d.restore(snap)
		return kpl.For("", v, start, end, body...)
	case 4:
		cond := d.expr(depth)
		snap := d.snapshot()
		then := d.stmts(1+d.c.mod(3), depth-1, loopDepth)
		d.restore(snap)
		if d.c.mod(2) == 1 {
			els := d.stmts(1+d.c.mod(2), depth-1, loopDepth)
			d.restore(snap)
			return kpl.IfElse(cond, then, els)
		}
		return kpl.If(cond, then...)
	default:
		return kpl.Break()
	}
}

func (d *decoder) expr(depth int) kpl.Expr {
	tag := d.c.mod(10)
	if depth <= 0 && tag >= 5 {
		tag %= 5 // leaves only
	}
	switch tag {
	case 0:
		t := kpl.Type(d.c.mod(3))
		i, f := d.c.scalar(t)
		return &kpl.Const{T: t, I: i, F: f}
	case 1:
		return kpl.TID()
	case 2:
		return kpl.NT()
	case 3:
		if len(d.k.Params) == 0 {
			return kpl.TID()
		}
		return kpl.P(d.k.Params[d.c.mod(len(d.k.Params))].Name)
	case 4:
		// Bias reads toward variables already assigned (the thread index
		// while there is none) so most kernels are fully defined, and thus
		// compilable; the remaining 1/8 read an arbitrary name to keep the
		// undefined-variable path covered.
		b := d.c.byte()
		switch {
		case b%8 == 7:
			return kpl.V(fmt.Sprintf("v%d", int(b)%maxVars))
		case len(d.defined) == 0:
			return kpl.TID()
		}
		return kpl.V(d.defined[int(b/8)%len(d.defined)])
	case 5:
		return kpl.Bin(kpl.BinOp(d.c.mod(18)), d.expr(depth-1), d.expr(depth-1))
	case 6:
		return &kpl.UnExpr{Op: kpl.UnOp(d.c.mod(10)), A: d.expr(depth - 1)}
	case 7:
		return kpl.Load(d.k.Bufs[d.c.mod(len(d.k.Bufs))].Name, d.expr(depth-1))
	case 8:
		return kpl.Cast(kpl.Type(d.c.mod(3)), d.expr(depth-1))
	default:
		// The typed compiler refuses a select whose arms differ in type, so
		// three times in four both arms are cast to one type; the rest keep
		// the refusal (and the interpreter fallback) covered.
		b := d.c.byte()
		cond, x, y := d.expr(depth-1), d.expr(depth-1), d.expr(depth-1)
		if b%4 != selRaw {
			t := kpl.Type(b % 3)
			x, y = kpl.Cast(t, x), kpl.Cast(t, y)
		}
		return kpl.Sel(cond, x, y)
	}
}

// selRaw is the residue mod 4 of a select's mode byte that leaves the arms
// as decoded; any other byte b casts both to Type(b % 3).
const selRaw = 3

// clampBound forces a loop bound into (-loopClamp, loopClamp). The I32 cast
// is essential, not cosmetic: fmod(NaN, 16) is still NaN, and a NaN bound
// truncates to MinInt64 in the For header, turning the loop into a ~2^63
// iteration hang. Casting first maps NaN/±Inf to MinInt64, which the integer
// mod then bounds.
func clampBound(e kpl.Expr) kpl.Expr {
	return kpl.Mod(kpl.Cast(kpl.I32, e), kpl.CI(loopClamp))
}

func (d *decoder) varName() string { return fmt.Sprintf("v%d", d.c.mod(maxVars)) }

func (d *decoder) writableBuf() string { return d.writable[d.c.mod(len(d.writable))] }

// env decodes the launch environment: thread count, parameter bindings
// (occasionally left unbound to exercise the error path), and buffers filled
// deterministically from a per-buffer seed.
func (d *decoder) env() *kpl.Env {
	env := kpl.NewEnv(1 + d.c.mod(maxThreads))
	for _, p := range d.k.Params {
		if d.c.mod(8) == 7 {
			continue // unbound parameter
		}
		i, f := d.c.scalar(p.T)
		env.Params[p.Name] = kpl.Value{T: p.T, I: i, F: f}
	}
	for _, b := range d.k.Bufs {
		if d.c.mod(16) == 15 {
			continue // unbound buffer
		}
		buf := kpl.NewBuffer(b.Elem, d.c.mod(maxBufLen+1))
		fillBuffer(buf, d.c.byte())
		env.Bind(b.Name, buf)
	}
	return env
}

// fillBuffer writes small deterministic values derived from seed, escaping
// into the edge tables as scalar does: bit patterns go in unconverted.
func fillBuffer(b *kpl.Buffer, seed byte) {
	s := uint32(seed)*2654435761 + 1
	next := func() uint32 {
		s = s*1664525 + 1013904223
		return s >> 24
	}
	for i := 0; i < b.Len(); i++ {
		v := int8(next())
		edge := v == escape
		switch b.Elem {
		case kpl.I32:
			b.I32s[i] = int32(v)
			if edge {
				b.I32s[i] = int32(edgeInts[int(next())%len(edgeInts)])
			}
		case kpl.F32:
			b.F32s[i] = float32(v) / 4
			if edge {
				b.F32s[i] = math.Float32frombits(edgeF32s[int(next())%len(edgeF32s)])
			}
		default:
			b.F64s[i] = float64(v) / 4
			if edge {
				b.F64s[i] = math.Float64frombits(edgeF64s[int(next())%len(edgeF64s)])
			}
		}
	}
}

// CloneEnv deep-copies the buffer bindings (parameters are immutable and
// shared) so two engines can run against identical inputs.
func CloneEnv(env *kpl.Env) *kpl.Env {
	out := &kpl.Env{NThreads: env.NThreads, Params: env.Params, Bufs: make(map[string]*kpl.Buffer, len(env.Bufs))}
	for name, b := range env.Bufs {
		nb := &kpl.Buffer{Elem: b.Elem}
		nb.F32s = append([]float32(nil), b.F32s...)
		nb.F64s = append([]float64(nil), b.F64s...)
		nb.I32s = append([]int32(nil), b.I32s...)
		out.Bufs[name] = nb
	}
	return out
}

// BuffersEqual compares two buffers bit for bit (NaN-exact).
func BuffersEqual(a, b *kpl.Buffer) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("bound %v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if a.Elem != b.Elem || a.Len() != b.Len() {
		return fmt.Errorf("shape %v[%d] vs %v[%d]", a.Elem, a.Len(), b.Elem, b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		switch a.Elem {
		case kpl.F32:
			if math.Float32bits(a.F32s[i]) != math.Float32bits(b.F32s[i]) {
				return fmt.Errorf("[%d]: %v (%#08x) vs %v (%#08x)", i,
					a.F32s[i], math.Float32bits(a.F32s[i]), b.F32s[i], math.Float32bits(b.F32s[i]))
			}
		case kpl.F64:
			if math.Float64bits(a.F64s[i]) != math.Float64bits(b.F64s[i]) {
				return fmt.Errorf("[%d]: %v (%#016x) vs %v (%#016x)", i,
					a.F64s[i], math.Float64bits(a.F64s[i]), b.F64s[i], math.Float64bits(b.F64s[i]))
			}
		default:
			if a.I32s[i] != b.I32s[i] {
				return fmt.Errorf("[%d]: %d vs %d", i, a.I32s[i], b.I32s[i])
			}
		}
	}
	return nil
}

// StatsEqual compares two Stats exactly: instruction vectors bit for bit
// (every count is an integer, so exact equality is the correct notion), map
// contents including key presence, and thread counts.
func StatsEqual(a, b *kpl.Stats) error {
	if a.Instr != b.Instr {
		return fmt.Errorf("instr %v vs %v", a.Instr, b.Instr)
	}
	if a.Threads != b.Threads {
		return fmt.Errorf("threads %d vs %d", a.Threads, b.Threads)
	}
	if !reflect.DeepEqual(a.Trips, b.Trips) {
		return fmt.Errorf("trips %v vs %v", a.Trips, b.Trips)
	}
	if !reflect.DeepEqual(a.Entries, b.Entries) {
		return fmt.Errorf("entries %v vs %v", a.Entries, b.Entries)
	}
	if !reflect.DeepEqual(a.BufLd, b.BufLd) {
		return fmt.Errorf("bufLd %v vs %v", a.BufLd, b.BufLd)
	}
	if !reflect.DeepEqual(a.BufSt, b.BufSt) {
		return fmt.Errorf("bufSt %v vs %v", a.BufSt, b.BufSt)
	}
	return nil
}

// CheckDiff runs the kernel on identical inputs through the reference
// interpreter, the compiled engine (when the kernel compiles), and the
// block-parallel dispatcher at the given geometry, and returns an error
// describing the first divergence in buffers, statistics, or error text.
//
// The block-parallel comparison at workers > 1 is only meaningful for
// block-independent kernels (threads of one block never read another
// block's writes): worker shadow buffers give cross-block reads serial-copy
// semantics by design. Pass workers = 1 for arbitrary (e.g. fuzz-generated)
// kernels.
func CheckDiff(k *kpl.Kernel, env *kpl.Env, blockSize, workers int) error {
	envI := CloneEnv(env)
	stI := kpl.NewStats()
	errI := k.InterpretAll(envI, stI)

	if p, err := kpl.Compile(k); err == nil {
		envC := CloneEnv(env)
		stC := kpl.NewStats()
		errC := p.ExecAll(envC, stC)
		if err := compareRuns("compiled-serial", envI, stI, errI, envC, stC, errC); err != nil {
			return err
		}
	}

	envB := CloneEnv(env)
	stB := kpl.NewStats()
	errB := k.ExecBlocks(envB, stB, blockSize, workers)
	tag := fmt.Sprintf("blocks[bs=%d,w=%d]", blockSize, workers)
	return compareRuns(tag, envI, stI, errI, envB, stB, errB)
}

func compareRuns(tag string, envA *kpl.Env, stA *kpl.Stats, errA error,
	envB *kpl.Env, stB *kpl.Stats, errB error) error {
	aMsg, bMsg := "", ""
	if errA != nil {
		aMsg = errA.Error()
	}
	if errB != nil {
		bMsg = errB.Error()
	}
	if aMsg != bMsg {
		return fmt.Errorf("%s: error mismatch:\n  interp: %q\n  other:  %q", tag, aMsg, bMsg)
	}
	for name, a := range envA.Bufs {
		if err := BuffersEqual(a, envB.Bufs[name]); err != nil {
			return fmt.Errorf("%s: buffer %s: %v", tag, name, err)
		}
	}
	if err := StatsEqual(stA, stB); err != nil {
		return fmt.Errorf("%s: stats: %v", tag, err)
	}
	return nil
}
