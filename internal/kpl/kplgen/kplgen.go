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
	c := &cursor{data: data}
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
		s := kpl.Let(v, d.expr(depth))
		d.markDefined(v)
		return s
	case 1:
		return kpl.Store(d.writableBuf(), d.expr(depth), d.expr(depth))
	case 2:
		return kpl.AtomicAdd(d.writableBuf(), d.expr(depth), d.expr(depth))
	case 3:
		v := d.varName()
		start := clampBound(d.expr(depth - 1))
		end := clampBound(d.expr(depth - 1))
		// The loop variable is definitely assigned only inside the body, and
		// body assignments do not escape a possibly-zero-trip loop.
		snap := d.snapshot()
		d.markDefined(v)
		body := d.stmts(1+d.c.mod(3), depth-1, loopDepth+1)
		d.restore(snap)
		return kpl.For("", v, start, end, body...)
	case 4:
		cond := d.expr(depth - 1)
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
		v := int8(d.c.byte())
		switch t {
		case kpl.I32:
			return kpl.CI(int64(v))
		case kpl.F32:
			return kpl.CF(float64(v) / 4)
		default:
			return kpl.CD(float64(v) / 4)
		}
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
		// Bias reads toward variables already assigned so most kernels are
		// fully defined (and thus compilable); the remaining 1/8 read an
		// arbitrary name to keep the undefined-variable path covered.
		b := d.c.byte()
		if len(d.defined) > 0 && b%8 != 7 {
			return kpl.V(d.defined[int(b/8)%len(d.defined)])
		}
		return kpl.V(fmt.Sprintf("v%d", int(b)%maxVars))
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
		v := int8(d.c.byte())
		switch p.T {
		case kpl.I32:
			env.SetInt(p.Name, int64(v))
		case kpl.F32:
			env.SetF32(p.Name, float64(v)/4)
		default:
			env.SetF64(p.Name, float64(v)/4)
		}
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

// fillBuffer writes small deterministic values derived from seed.
func fillBuffer(b *kpl.Buffer, seed byte) {
	s := uint32(seed)*2654435761 + 1
	for i := 0; i < b.Len(); i++ {
		s = s*1664525 + 1013904223
		v := int64(int8(s >> 24))
		switch b.Elem {
		case kpl.I32:
			b.Set(i, kpl.IntVal(v))
		case kpl.F32:
			b.Set(i, kpl.F32Val(float64(v)/4))
		default:
			b.Set(i, kpl.F64Val(float64(v)/4))
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
		if err := compareRuns("compiled-serial", envI, stI, errI, envC, stC, errC, true); err != nil {
			return err
		}
	}

	envB := CloneEnv(env)
	stB := kpl.NewStats()
	errB := k.ExecBlocks(envB, stB, blockSize, workers)
	// On a failing parallel launch, worker-local statistics and shadow
	// writes are discarded by design; only the error itself is comparable.
	full := errI == nil || workers <= 1 || k.HasAtomics()
	tag := fmt.Sprintf("blocks[bs=%d,w=%d]", blockSize, workers)
	return compareRuns(tag, envI, stI, errI, envB, stB, errB, full)
}

func compareRuns(tag string, envA *kpl.Env, stA *kpl.Stats, errA error,
	envB *kpl.Env, stB *kpl.Stats, errB error, full bool) error {
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
	if !full {
		return nil
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
