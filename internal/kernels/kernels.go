// Package kernels implements the benchmark suite of the paper's evaluation —
// Go counterparts of the CUDA SDK applications of Fig. 11 plus the
// micro-workloads of Table 1 and Figs. 9–10. Every benchmark carries:
//
//   - a kpl program (the "guest binary": executed by the emulation back end
//     on kpl's compiled engine, analyzed for σ/µ/λ, dispatched by ΣVP);
//   - a native Go implementation (the compiled semantics the host GPU model
//     executes functionally — tests assert it agrees with the kpl
//     interpreter, the reference semantics);
//   - a workload generator producing deterministic inputs at any scale;
//   - application-level metadata for the Fig. 11 study: main-loop iteration
//     count, non-CUDA time on the VP (OpenGL and file I/O portions that ΣVP
//     does not accelerate), and whether the kernel's memory management
//     permits Kernel Coalescing (paper Section 5 names the exceptions).
package kernels

import (
	"fmt"
	"sort"

	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// Workload is one concrete problem instance for a benchmark.
type Workload struct {
	Grid              int
	Block             int
	SharedMemPerBlock int
	RegsPerThread     int

	Params map[string]kpl.Value

	// BufBytes gives the allocation size of every kernel buffer; Inputs
	// holds initial contents for those that have any (others start zeroed).
	BufBytes map[string]int
	Inputs   map[string][]byte

	// OutBufs are copied device-to-host after the kernel (the D2H legs).
	OutBufs []string

	// N is the problem size in elements (for reporting).
	N int
}

// Threads returns the launch width.
func (w *Workload) Threads() int { return w.Grid * w.Block }

// InBytes returns the total bytes of the H2D legs.
func (w *Workload) InBytes() int {
	t := 0
	for _, b := range w.Inputs {
		t += len(b)
	}
	return t
}

// OutBytes returns the total bytes of the D2H legs.
func (w *Workload) OutBytes() int {
	t := 0
	for _, name := range w.OutBufs {
		t += w.BufBytes[name]
	}
	return t
}

// Benchmark is one application of the suite.
type Benchmark struct {
	Name   string
	Kernel *kpl.Kernel
	Prog   *kir.Program

	// Native is the compiled semantics (nil → kpl's engine only).
	Native func(env *kpl.Env) error

	// MakeWorkload builds a deterministic problem instance; scale ≥ 1 grows
	// it (roughly linearly in work).
	MakeWorkload func(scale int) *Workload

	// Iterations is the application's GPU main-loop count (each iteration
	// performs the H2D → kernel → D2H sequence).
	Iterations int

	// NonCUDAVPSeconds is per-iteration time the application spends outside
	// CUDA on the VP — OpenGL rendering through Mesa, file I/O — which no
	// scenario accelerates (it bounds the Fig. 11 speedups).
	NonCUDAVPSeconds float64

	// CopyEachIteration marks streaming applications whose main loop copies
	// fresh input to the device every iteration (sorts, histograms,
	// scans). Iterative/visual applications load their data once and then
	// only launch kernels (the CUDA SDK norm), so their steady state is
	// kernel-dominated.
	CopyEachIteration bool

	// Coalescable reports whether identical instances of this kernel from
	// different VPs can be merged by Kernel Coalescing. The paper names
	// convolutionSeparable, dct8x8, SobelFilter, MonteCarlo, nbody and
	// smokeParticles as not benefiting, "mostly due to the way they access
	// and manage the memory".
	Coalescable bool
}

// NewLaunch builds a device launch for the workload. Buffer bindings are
// filled by the caller after allocating on a concrete device.
func (b *Benchmark) NewLaunch(w *Workload) *hostgpu.Launch {
	return &hostgpu.Launch{
		Kernel:            b.Kernel,
		Prog:              b.Prog,
		Grid:              w.Grid,
		Block:             w.Block,
		SharedMemPerBlock: w.SharedMemPerBlock,
		RegsPerThread:     w.RegsPerThread,
		Params:            w.Params,
		Native:            b.Native,
	}
}

var registry = map[string]*Benchmark{}

// register adds a benchmark at init time, analyzing its kernel. It panics on
// duplicate names or invalid kernels: the suite is static data and a broken
// entry is a programming error.
func register(b *Benchmark) *Benchmark {
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("kernels: duplicate benchmark %q", b.Name))
	}
	prog, err := kir.Analyze(b.Kernel)
	if err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", b.Name, err))
	}
	b.Prog = prog
	registry[b.Name] = b
	return b
}

// reanalyze re-lowers a benchmark whose kernel body was assembled
// programmatically after registration (e.g. shared sub-expressions).
func reanalyze(b *Benchmark) {
	prog, err := kir.Analyze(b.Kernel)
	if err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", b.Name, err))
	}
	b.Prog = prog
}

// Get returns the named benchmark.
func Get(name string) (*Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
	}
	return b, nil
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all benchmarks sorted by name.
func All() []*Benchmark {
	names := Names()
	out := make([]*Benchmark, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// ceilDiv returns ⌈a/b⌉ for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// prng is a small deterministic generator for reproducible workloads.
type prng struct{ s uint32 }

func newPRNG(seed uint32) *prng {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return &prng{s: seed}
}

func (p *prng) next() uint32 {
	p.s = p.s*1664525 + 1013904223
	return p.s
}

// f32 returns a float in [lo, hi).
func (p *prng) f32(lo, hi float64) float32 {
	u := float64(p.next()>>8) / float64(1<<24)
	return float32(lo + u*(hi-lo))
}

// i32 returns an int in [0, n).
func (p *prng) i32(n int32) int32 {
	if n <= 0 {
		return 0
	}
	return int32(p.next() % uint32(n))
}

// f32Slice fills a slice with values in [lo, hi).
func (p *prng) f32Slice(n int, lo, hi float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = p.f32(lo, hi)
	}
	return out
}

// f64Slice fills a slice with values in [lo, hi).
func (p *prng) f64Slice(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(p.f32(lo, hi))
	}
	return out
}

// i32Slice fills a slice with values in [0, n).
func (p *prng) i32Slice(count int, n int32) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = p.i32(n)
	}
	return out
}

// clampI builds the kpl expression min(max(e, lo), hi) on i32 operands.
func clampI(e kpl.Expr, lo, hi kpl.Expr) kpl.Expr {
	return kpl.Min(kpl.Max(e, lo), hi)
}

// clampInt is the native counterpart of clampI.
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
