package hostgpu

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/devmem"
	"repro/internal/estimate"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Engine names. The device has dual copy engines (separate H2D and D2H DMA
// queues, as on the Quadro 4000) plus the compute engine, so a copy-in →
// kernel → copy-out loop pipelines across three engines — the (2+N)·T
// schedule of the paper's Eq. 7.
const (
	EngineH2D     = "h2d"
	EngineD2H     = "d2h"
	EngineCompute = "compute"
)

// Indexes of the per-engine state (clocks, busy time) and of the device's
// counters: an engine's op count at the engine's index, its busy nanoseconds
// nEngines on, then the timing cache's hits and misses.
const (
	engH2D = iota
	engD2H
	engCompute
	nEngines
	ctrBusyNs      = nEngines
	ctrCacheHits   = 2 * nEngines
	ctrCacheMisses = ctrCacheHits + 1
)

var engineNames = [nEngines]string{EngineH2D, EngineD2H, EngineCompute}

var counterNames = [...]string{
	"hostgpu.ops.h2d", "hostgpu.ops.d2h", "hostgpu.ops.compute",
	"hostgpu.engine_busy_ns.h2d", "hostgpu.engine_busy_ns.d2h", "hostgpu.engine_busy_ns.compute",
	"hostgpu.timing_cache.hits", "hostgpu.timing_cache.misses",
}

// ExecMode selects whether kernel launches execute functionally.
type ExecMode uint8

// Execution modes.
const (
	// ExecFull runs the kernel's semantics against device memory (native
	// implementation when provided, kpl's compiled engine otherwise) and
	// advances the simulated clock.
	ExecFull ExecMode = iota
	// ExecTimingOnly advances the simulated clock without running kernels —
	// used by large parameter sweeps where only time matters. A device built
	// timing-only (NewTimingOnly) keeps no host bytes at all: its allocations
	// are placed, sized and accounted but byte-less (devmem.NewUnbacked), so
	// the memory stores nothing copied in and reads as zeros, and its D2H
	// returns no bytes. A launch that would sample λ (Launch.Sampled) has
	// nothing to sample there and is refused: a launch priced on a timing-only
	// device that needs λ brings it in Dyn.
	ExecTimingOnly
)

// Interval is a [start, end) span in simulated seconds.
type Interval struct {
	Start, End float64
}

// Duration returns End − Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Launch describes one kernel invocation. A launch that reaches a device from
// outside — a guest's, through the service or the emulated device — has kept
// the launch contract (Check), and nothing below those doors checks it again.
type Launch struct {
	Kernel *kpl.Kernel
	Prog   *kir.Program // analyzed form of Kernel

	Grid              int // blocks
	Block             int // threads per block
	SharedMemPerBlock int
	RegsPerThread     int

	Params   map[string]kpl.Value
	Bindings map[string]devmem.Ptr // kernel buffer name → device allocation

	// Dyn optionally carries pre-measured dynamic statistics (λ for
	// data-dependent loops). When nil and the kernel needs them, the device
	// samples a few threads before launch (paper footnote 2).
	Dyn *kpl.Stats

	// Native optionally supplies compiled semantics for ExecFull mode;
	// without it the kernel runs on kpl's compiled engine. It must be safe
	// for concurrent calls on distinct environments: the pieces of a
	// coalesced launch run it side by side.
	Native func(env *kpl.Env) error
}

// maxThreads is the most threads a launch may have: a thread's index is an
// i32 (kpl's TID).
const maxThreads = math.MaxInt32

// Check holds the launch to the launch contract, which the doors a launch
// comes in by apply before anything else sees it (core's kernel job builder,
// before admission, and emul.Device.Launch):
//   - Kernel and Prog are set, and Prog was analyzed from Kernel;
//   - the shape is one a device can run (checkShape);
//   - the scalar parameters are exactly the declared ones, each bound by the
//     rule kpl's engine binds it by (kpl.Kernel.CheckParams);
//   - every declared buffer is bound, and no other name is.
//
// A contradicted parameter or binding is a *kpl.BindError naming it.
func (l *Launch) Check() error {
	if l == nil || l.Kernel == nil || l.Prog == nil {
		return fmt.Errorf("hostgpu: launch without kernel or program")
	}
	if l.Prog.Kernel != l.Kernel {
		return fmt.Errorf("hostgpu: %s: program not analyzed from the kernel", l.Kernel.Name)
	}
	if err := l.checkShape(); err != nil {
		return err
	}
	if err := l.Kernel.CheckParams(l.Params); err != nil {
		return err
	}
	for i := range l.Kernel.Bufs {
		if _, ok := l.Bindings[l.Kernel.Bufs[i].Name]; !ok {
			return &kpl.BindError{Kernel: l.Kernel.Name, Name: l.Kernel.Bufs[i].Name, Msg: "buffer not bound"}
		}
	}
	if len(l.Bindings) == len(l.Kernel.Bufs) {
		return nil
	}
	undeclared := ""
	for name := range l.Bindings {
		if l.Kernel.Buf(name) == nil && (undeclared == "" || name < undeclared) {
			undeclared = name
		}
	}
	return &kpl.BindError{Kernel: l.Kernel.Name, Name: undeclared, Msg: "undeclared buffer"}
}

// checkShape is the contract's shape half: 0 < Grid, 0 < Block and
// Grid×Block ≤ maxThreads, the product formed only from factors that cannot
// make it wrap. It is a few integer compares, so Price applies it to every
// launch it prices: a launch without threads would price to NaN and poison
// the timing cache.
func (l *Launch) checkShape() error {
	if l.Grid <= 0 || l.Block <= 0 || l.Grid > maxThreads || l.Block > maxThreads || int64(l.Grid)*int64(l.Block) > maxThreads {
		return fmt.Errorf("hostgpu: %s: invalid launch %d×%d: want 0 < grid, 0 < block and grid×block ≤ %d threads",
			l.Kernel.Name, l.Grid, l.Block, maxThreads)
	}
	return nil
}

// Sampled reports whether pricing the launch samples λ from live device
// memory (paper footnote 2): it brings no Dyn and the kernel has a
// data-dependent loop. Such a pricing holds only for the bytes it was sampled
// from, so it is never cached and never made before the launch runs.
func (l *Launch) Sampled() bool { return l.Dyn == nil && l.Prog.NeedsDynamicProfile() }

// Threads returns the total thread count.
func (l *Launch) Threads() int { return l.Grid * l.Block }

// Shape returns the launch geometry.
func (l *Launch) Shape() profile.LaunchShape {
	return profile.LaunchShape{
		Grid:              l.Grid,
		Block:             l.Block,
		SharedMemPerBlock: l.SharedMemPerBlock,
		RegsPerThread:     l.RegsPerThread,
	}
}

// Estimate is the paper's Profile-Based Execution Analysis of this launch
// (Section 4): the target's C/C′/C″ times and Eq. 6 power from prof, the
// launch's profile on host, and p, its pricing there. σ{K,T} is the launch
// recompiled for target (Eq. 1) at its own λ — the launch's Dyn, or for a
// sampled launch the λ p was priced at — so a launch whose λ is unknown is
// refused. The access streams are p's: they read counts and allocation sizes,
// not the architecture. Every estimate, served or studied, is built here.
func (l *Launch) Estimate(host, target *arch.GPU, p *Priced, prof *profile.Profile) (*estimate.Result, error) {
	dyn := l.Dyn
	if l.Sampled() {
		if dyn = p.Dyn; dyn == nil {
			return nil, fmt.Errorf("hostgpu: %s: no estimate without the launch's λ", l.Kernel.Name)
		}
	}
	sigmaT, err := l.Prog.Sigma(target, kir.Launch{NThreads: l.Threads(), Params: l.Params}, dyn)
	if err != nil {
		return nil, fmt.Errorf("hostgpu: %s: %w", l.Kernel.Name, err)
	}
	return estimate.Estimate(&estimate.Inputs{
		Host: host, Target: target, HostProfile: prof, SigmaTarget: sigmaT,
		Shape: l.Shape(), Accesses: p.Accesses,
	})
}

// GPU is one simulated physical GPU.
type GPU struct {
	Arch arch.GPU
	Mem  *devmem.Mem

	// Mode selects functional vs timing-only kernel execution.
	Mode ExecMode

	// InOrderIssue enables the Fermi-style single hardware work queue: an
	// operation cannot be dispatched before every earlier-submitted
	// operation has been dispatched, even across independent streams. This
	// head-of-line blocking is what Kernel Interleaving's reordering
	// recovers (paper Figs. 3–4).
	InOrderIssue bool

	// Serialize models the unoptimized dispatcher: each job is dispatched
	// only after every previously dispatched job has *completed*, so the
	// engines never overlap — a copy-in/kernel/copy-out loop costs the full
	// 3N·T of the paper's baseline (Section 3). Kernel Interleaving turns
	// this off and pipelines the engines.
	Serialize bool

	// Trace optionally records the engine timeline: one record per op,
	// stamped with the job SetTraceJob last named.
	Trace *trace.Log

	// Metrics optionally receives device counters: per-engine op counts and
	// busy time, timing-cache hits/misses. A nil registry is a no-op.
	Metrics *metrics.Registry

	// Workers sizes the worker pool for block-parallel functional kernel
	// execution in ExecFull mode (0 = runtime.NumCPU(), 1 = serial).
	// Simulated-time results are identical for every value.
	Workers int

	mu           sync.Mutex
	engineFree   [nEngines]float64
	streamReady  map[int]float64
	lastIssue    float64
	busy         [nEngines]float64 // accumulated busy seconds per engine
	kernelEnergy float64           // accumulated kernel energies (dynamic + per-launch static)
	ctrReg       *metrics.Registry // the registry ctr was resolved from
	traceJob     trace.Record      // VP, Submit and Plan of the ops schedule records next
	ctr          [len(counterNames)]*metrics.Counter

	cacheMu     sync.RWMutex
	timingCache map[string]*Priced

	recMu       sync.Mutex
	records     map[devmem.Ptr]*runRecord // Elide's records, by first writable allocation
	recordSweep int                       // len(records) at which RecordRun drops stale ones
	elided      atomic.Int64
}

// New returns a GPU with the given descriptor and device memory capacity.
func New(a arch.GPU, memBytes int64) *GPU { return newGPU(a, devmem.New(memBytes), ExecFull) }

// NewTimingOnly returns an ExecTimingOnly GPU whose device memory keeps no
// bytes (devmem.NewUnbacked): every allocation has its address, size,
// generation and share of the capacity, as on a GPU from New, and costs the
// host nothing. Every timing-only device is built here; one from New switched
// to ExecTimingOnly later keeps its backed memory, which stores what is copied
// into it.
func NewTimingOnly(a arch.GPU, memBytes int64) *GPU {
	return newGPU(a, devmem.NewUnbacked(memBytes), ExecTimingOnly)
}

func newGPU(a arch.GPU, mem *devmem.Mem, mode ExecMode) *GPU {
	return &GPU{
		Arch:        a,
		Mem:         mem,
		Mode:        mode,
		streamReady: map[int]float64{},
		timingCache: map[string]*Priced{},
	}
}

// schedule places an operation of the given duration on an engine,
// respecting stream order, engine availability, and (when enabled) in-order
// issue. It returns the op's interval.
func (g *GPU) schedule(e, stream int, dur float64, label string) Interval {
	g.mu.Lock()
	start := math.Max(g.streamReady[stream], g.engineFree[e])
	if g.Serialize {
		for _, t := range g.engineFree {
			start = math.Max(start, t)
		}
	}
	if g.InOrderIssue {
		start = math.Max(start, g.lastIssue)
	}
	g.lastIssue = start
	rec := g.traceJob
	end := start + dur
	g.engineFree[e] = end
	g.streamReady[stream] = end
	g.busy[e] += dur
	if g.Metrics != nil {
		g.counter(e).Inc()
		g.counter(ctrBusyNs + e).Add(int64(math.Round(dur * 1e9)))
	}
	g.mu.Unlock()
	if g.Trace != nil {
		rec.Kind, rec.Engine, rec.Stream, rec.Label, rec.Start, rec.End = trace.KindOp, engineNames[e], stream, label, start, end
		g.Trace.Add(rec)
	}
	return Interval{Start: start, End: end}
}

// SetTraceJob names the job whose ops the trace records from now on: its VP,
// and when it was submitted and planned. Whoever runs a batch on the device
// calls it before each job's run; ops issued outside a job carry the last
// job named, or zeros.
func (g *GPU) SetTraceJob(vp int, submit, plan float64) {
	g.mu.Lock()
	g.traceJob = trace.Record{VP: vp, Submit: submit, Plan: plan}
	g.mu.Unlock()
}

// counter returns device counter i of Metrics, resolved once per registry
// (Metrics may be attached, or replaced, after New) on its first touch, so it
// still appears in a snapshot when it is first counted. Caller holds g.mu.
func (g *GPU) counter(i int) *metrics.Counter {
	if g.ctrReg != g.Metrics {
		g.ctrReg, g.ctr = g.Metrics, [len(counterNames)]*metrics.Counter{}
	}
	if g.ctr[i] == nil {
		g.ctr[i] = g.Metrics.Counter(counterNames[i])
	}
	return g.ctr[i]
}

// sizeLabel is the timeline label of an n-byte operation ("H2D 4096B"). Only
// a trace reads labels, so without one nothing is formatted.
func (g *GPU) sizeLabel(op string, n int) string {
	if g.Trace == nil {
		return ""
	}
	return fmt.Sprintf("%s %dB", op, n)
}

// CopyH2D transfers src into device memory at dst+off through the copy
// engine and returns the transfer interval. The memory decides what the copy
// stores: a timing-only device's stores nothing (devmem.NewUnbacked).
func (g *GPU) CopyH2D(stream int, dst devmem.Ptr, off int, src []byte) (Interval, error) {
	return g.copyH2D(stream, len(src), g.Mem.Write(dst, off, src))
}

// AdoptH2D is CopyH2D of a payload the allocation may keep (devmem.Mem.Adopt);
// every simulated figure is CopyH2D's.
func (g *GPU) AdoptH2D(stream int, dst devmem.Ptr, off int, pl *devmem.Payload) (Interval, error) {
	n := len(pl.B)
	return g.copyH2D(stream, n, g.Mem.Adopt(dst, off, pl))
}

// copyH2D schedules an n-byte copy-in that the memory took with error err.
func (g *GPU) copyH2D(stream, n int, err error) (Interval, error) {
	if err != nil {
		return Interval{}, err
	}
	return g.schedule(engH2D, stream, CopyTime(&g.Arch, n), g.sizeLabel("H2D", n)), nil
}

// CopyD2H transfers n bytes from device memory at src+off back to the host:
// into dst[:n] when the caller brings the destination (a response frame of at
// least n bytes; the bytes are then copied once and nothing is allocated),
// into a fresh slice when dst is nil. In timing-only mode no bytes are
// returned; the memory still checks the range (devmem.Mem.CheckRead).
func (g *GPU) CopyD2H(stream int, src devmem.Ptr, off, n int, dst []byte) ([]byte, Interval, error) {
	var data []byte
	var err error
	switch {
	case g.Mode == ExecTimingOnly:
		err = g.Mem.CheckRead(src, off, n)
	case dst != nil:
		data = dst[:n]
		err = g.Mem.ReadInto(src, off, data)
	default:
		data, err = g.Mem.Read(src, off, n)
	}
	if err != nil {
		return nil, Interval{}, err
	}
	dur := CopyTime(&g.Arch, n)
	iv := g.schedule(engD2H, stream, dur, g.sizeLabel("D2H", n))
	return data, iv, nil
}

// Launch dispatches a kernel on the compute engine: it prices the launch
// (Price), then runs it with the kernel's own semantics (LaunchPriced).
func (g *GPU) Launch(stream int, l *Launch) (*profile.Profile, Interval, error) {
	var p *Priced
	return g.LaunchPriced(stream, l, &p)
}

// LaunchPriced is Launch at a pricing the caller keeps: *p when it is set
// (Price's result for this launch), otherwise the launch is priced here and
// *p records it. A kernel job runs through it with the pricing it carries, so
// a launch the coalescer's win predictor priced is not priced again. A launch
// whose run would leave device memory as it is (Elide) is priced, scheduled
// and profiled like any other, but its functional half is skipped.
func (g *GPU) LaunchPriced(stream int, l *Launch, p **Priced) (*profile.Profile, Interval, error) {
	if *p == nil {
		priced, err := g.Price(l)
		if err != nil {
			return nil, Interval{}, err
		}
		*p = priced
	}
	return g.RunPriced(stream, l.Kernel.Name, l.Shape(), *p, func() error {
		if g.Elide(l) {
			return nil
		}
		env, err := l.Bind("hostgpu", g.Mem)
		if err != nil {
			return err
		}
		if err := l.Exec("hostgpu", g.Mem, env, nil, g.Workers); err != nil {
			return err
		}
		g.RecordRun(l)
		return nil
	})
}

// RunPriced runs a kernel launch already priced at p on the compute engine:
// exec (the launch's functional half) in ExecFull mode, then the engine time,
// the energy and the profiler's view of the run. exec's error is returned as
// it is, before anything is scheduled. The coalescer runs a merged launch
// through it, priced from its members.
func (g *GPU) RunPriced(stream int, name string, shape profile.LaunchShape, p *Priced, exec func() error) (*profile.Profile, Interval, error) {
	if g.Mode == ExecFull {
		if err := exec(); err != nil {
			return nil, Interval{}, err
		}
	}
	sigma, timing := p.Sigma, p.Timing
	iv := g.schedule(engCompute, stream, timing.Seconds, name)
	energy := KernelEnergy(&g.Arch, sigma, timing)
	g.mu.Lock()
	g.kernelEnergy += energy
	g.mu.Unlock()
	prof := &profile.Profile{
		Kernel:          name,
		Arch:            g.Arch.Name,
		Shape:           shape,
		Sigma:           sigma,
		Cycles:          timing.TotalCycles,
		ComputeCycles:   timing.ComputeCycles,
		DataStallCycles: timing.StallCycles,
		OverheadCycles:  timing.OverheadCycles,
		CacheAccesses:   timing.CacheAccesses,
		CacheMisses:     timing.CacheMisses,
		TimeSec:         timing.Seconds,
		EnergyJ:         energy,
	}
	return prof, iv, nil
}

// SessionEnergy returns the total energy of the measurement window: the
// accumulated kernel energies plus the device's static power over the
// session span (idle gaps included) — the device-level power accounting
// behind the paper's "simulation-driven power analysis".
func (g *GPU) SessionEnergy() float64 {
	g.mu.Lock()
	kernels := g.kernelEnergy
	g.mu.Unlock()
	return kernels + g.Arch.StaticPowerW*g.Sync()
}

// deriveSigma is the uncached derivation behind Price: σ, the access streams
// and, for a sampled launch, the λ it sampled (nil otherwise). It touches
// device bytes only to sample: when the launch brings no Dyn and the kernel
// has a data-dependent loop, every parameter is bound as a view (the sampler
// clones the writable ones itself) and λ measured on it; otherwise the
// bindings are only checked, with the errors a bind would give. A byte-less
// allocation (a timing-only device's) has nothing to sample, so there a
// launch that needs λ and brings none is refused.
func (g *GPU) deriveSigma(l *Launch) (arch.ClassVec, []cachemodel.Access, *kpl.Stats, error) {
	dyn := l.Dyn
	sample := l.Sampled()
	env, err := l.bind("hostgpu", func(_ int, ptr devmem.Ptr, decl *kpl.BufDecl) (*kpl.Buffer, error) {
		if !sample {
			return nil, g.Mem.CheckBind(ptr)
		}
		return g.Mem.BindView(ptr, decl.Elem)
	})
	if errors.Is(err, devmem.ErrNoBytes) {
		err = fmt.Errorf("hostgpu: %s: the launch brings no λ and device memory keeps no bytes to sample it from: %w", l.Kernel.Name, devmem.ErrNoBytes)
	}
	if err != nil {
		return arch.ClassVec{}, nil, nil, err
	}
	if sample {
		if dyn, err = SampleDyn(l.Kernel, l.Prog, env, nil); err != nil {
			return arch.ClassVec{}, nil, nil, fmt.Errorf("hostgpu: %s: pre-launch sampling: %w", l.Kernel.Name, err)
		}
	}
	kl := kir.Launch{NThreads: l.Threads(), Params: l.Params}
	sigma, err := l.Prog.Sigma(&g.Arch, kl, dyn)
	if err != nil {
		return arch.ClassVec{}, nil, nil, fmt.Errorf("hostgpu: %s: %w", l.Kernel.Name, err)
	}
	accesses, err := g.accessStreams(l, kl, dyn)
	if err != nil {
		return arch.ClassVec{}, nil, nil, err
	}
	if !sample {
		dyn = nil
	}
	return sigma, accesses, dyn, nil
}

// lambdaSample is how many threads, spread evenly over the launch, a λ
// measurement runs (paper footnote 2).
const lambdaSample = 32

// SampleDyn returns the dynamic statistics σ derivation needs: dyn when the
// caller already has them or the program's loops are all statically bounded
// (nil then), otherwise λ measured on a thread sample of k over env, whose
// buffers are not modified.
func SampleDyn(k *kpl.Kernel, prog *kir.Program, env *kpl.Env, dyn *kpl.Stats) (*kpl.Stats, error) {
	if dyn != nil || !prog.NeedsDynamicProfile() {
		return dyn, nil
	}
	return k.SampleStats(env, lambdaSample)
}

// Bind binds the kernel's buffer parameters to device memory: read-only
// parameters as views of the allocation, writable ones as private copies that
// Exec commits on success and releases on failure (devmem.Mem.BindParam),
// filled only past the prefix the launch overwrites before reading
// (kir.Program.Covered). Bind and Exec are the functional half of a launch on
// any device model; who ("hostgpu", "emul") prefixes their errors. The
// coalescer runs each piece of a merged launch through Bind and Exec's parts,
// with every Run before any WriteBack. A committed copy becomes its
// allocation's backing, which would leave another binding's view of that
// allocation on the displaced bytes, so a writable binding sharing its
// allocation gets a fresh full copy that is copied back instead: the env then
// reads as device memory after the launch, as emul's λ sampling needs.
func (l *Launch) Bind(who string, mem *devmem.Mem) (*kpl.Env, error) {
	return l.bind(who, func(i int, ptr devmem.Ptr, decl *kpl.BufDecl) (*kpl.Buffer, error) {
		if !decl.ReadOnly && l.aliased(decl.Name) {
			return mem.BindBuffer(ptr, decl.Elem)
		}
		return mem.BindParam(ptr, decl, l.Prog.Covered(i, kir.Launch{NThreads: l.Threads(), Params: l.Params}))
	})
}

// aliased reports whether buffer name shares its allocation with another.
func (l *Launch) aliased(name string) bool {
	ptr := l.Bindings[name]
	for _, decl := range l.Kernel.Bufs {
		if decl.Name != name && l.Bindings[decl.Name] == ptr {
			return true
		}
	}
	return false
}

// bind is Bind with the per-parameter rule left to the caller.
func (l *Launch) bind(who string, param func(int, devmem.Ptr, *kpl.BufDecl) (*kpl.Buffer, error)) (*kpl.Env, error) {
	env := &kpl.Env{NThreads: l.Threads(), Params: l.Params, Bufs: map[string]*kpl.Buffer{}}
	if env.Params == nil {
		env.Params = map[string]kpl.Value{}
	}
	for i := range l.Kernel.Bufs {
		decl := &l.Kernel.Bufs[i]
		buf, err := param(i, l.Bindings[decl.Name], decl)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: buffer %q: %w", who, l.Kernel.Name, decl.Name, err)
		}
		env.Bufs[decl.Name] = buf
	}
	return env, nil
}

// Exec is Run, then WriteBack on success or Release on failure.
func (l *Launch) Exec(who string, mem *devmem.Mem, env *kpl.Env, st *kpl.Stats, workers int) error {
	if err := l.Run(who, env, st, workers); err != nil {
		l.Release(env)
		return err
	}
	return l.WriteBack(mem, env)
}

// Run runs the kernel's semantics over env (from Bind) — the native
// implementation when the launch has one, otherwise its thread blocks fanned
// out over workers on kpl's compiled engine, bit-identical to a serial run and
// counted into st when that is non-nil. It touches env only: device memory is
// as it was until WriteBack.
func (l *Launch) Run(who string, env *kpl.Env, st *kpl.Stats, workers int) error {
	if l.Native == nil {
		return l.Kernel.ExecBlocks(env, st, l.Block, workers)
	}
	if err := l.runNative(env); err != nil {
		return fmt.Errorf("%s: %s: native execution: %w", who, l.Kernel.Name, err)
	}
	return nil
}

// runNative calls the native and returns a runtime error raised inside it as
// its error: natives index unchecked, so a launch whose parameters describe
// more work than its bindings hold faults there, and that must answer the
// guest, as kpl's out-of-range access does, not unwind the
// goroutine running the device's batch. Any other panic is a bug and is re-raised.
func (l *Launch) runNative(env *kpl.Env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(runtime.Error)
			if !ok {
				panic(r)
			}
			err = fault
		}
	}()
	return l.Native(env)
}

// WriteBack stores env's writable buffers into the device allocations they
// were bound from, committing each copy (devmem.Mem.Commit) but an aliased
// binding's, which is copied back (see Bind).
func (l *Launch) WriteBack(mem *devmem.Mem, env *kpl.Env) error {
	for _, decl := range l.Kernel.Bufs {
		if decl.ReadOnly {
			continue
		}
		ptr, buf := l.Bindings[decl.Name], env.Bufs[decl.Name]
		var err error
		if l.aliased(decl.Name) {
			err = mem.WriteBuffer(ptr, buf)
		} else {
			err = mem.Commit(ptr, buf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Release returns env's writable copies to the pool after a failed Run.
func (l *Launch) Release(env *kpl.Env) {
	for _, decl := range l.Kernel.Bufs {
		if !decl.ReadOnly && !l.aliased(decl.Name) {
			devmem.ReleaseBuffer(env.Bufs[decl.Name])
		}
	}
}

// accessStreams derives the cache-model access descriptors for the launch.
func (g *GPU) accessStreams(l *Launch, kl kir.Launch, dyn *kpl.Stats) ([]cachemodel.Access, error) {
	counts, err := l.Prog.BufAccesses(kl, dyn)
	if err != nil {
		return nil, fmt.Errorf("hostgpu: %s: %w", l.Kernel.Name, err)
	}
	var out []cachemodel.Access
	for _, decl := range l.Kernel.Bufs {
		c := counts[decl.Name]
		if c.Total() == 0 {
			continue
		}
		size, err := g.Mem.Size(l.Bindings[decl.Name])
		if err != nil {
			return nil, err
		}
		elems := size / decl.Elem.Size()
		if elems < 1 {
			elems = 1
		}
		l2 := decl.L2Fraction
		if l2 <= 0 || l2 > 1 {
			l2 = 1
		}
		out = append(out, cachemodel.Access{
			Pattern:  decl.Access,
			Accesses: c.Total() * l2,
			Elems:    elems,
			ElemSize: decl.Elem.Size(),
			Stride:   decl.Stride,
		})
	}
	return out, nil
}

// Memset fills n bytes of device memory with a value through the compute
// engine's fill path at device-memory bandwidth (cudaMemset).
func (g *GPU) Memset(stream int, dst devmem.Ptr, off, n int, value byte) (Interval, error) {
	if err := g.Mem.Fill(dst, off, n, value); err != nil {
		return Interval{}, err
	}
	dur := float64(n) / (g.Arch.MemBWGBps * 1e9)
	return g.schedule(engCompute, stream, dur, g.sizeLabel("memset", n)), nil
}

// ChargeD2D prices a copy of n bytes between two device allocations through
// device memory at MemBW — one chunk of the memory merge of Kernel Coalescing
// (paper Fig. 5) — and moves nothing: the simulated device pays for the
// gather and the scatter, while the host runs each piece of a merged launch on
// the member's own allocations.
func (g *GPU) ChargeD2D(stream, n int) Interval {
	dur := float64(n) / (g.Arch.MemBWGBps * 1e9)
	return g.schedule(engH2D, stream, dur, g.sizeLabel("D2D", n))
}

// SyncStream returns the simulated time at which all work submitted to the
// stream completes.
func (g *GPU) SyncStream(stream int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.streamReady[stream]
}

// StreamFrontier is one simulated stream clock: the stream id and the time
// at which all work submitted to it completes.
type StreamFrontier struct {
	Stream int
	Ready  float64
}

// StreamFrontiers exports the simulated clocks of every stream in [lo, hi),
// sorted by stream id — the per-VP stream window a migration checkpoint
// carries so causal ordering survives a device move.
func (g *GPU) StreamFrontiers(lo, hi int) []StreamFrontier {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []StreamFrontier
	for s, t := range g.streamReady {
		if s >= lo && s < hi {
			out = append(out, StreamFrontier{Stream: s, Ready: t})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// LiftStream raises a stream's simulated clock to at least t; it never
// lowers a clock. Restoring a migrated VP lifts its stream frontiers on the
// target device so replayed streams cannot be scheduled before work they
// already observed completing on the source device.
func (g *GPU) LiftStream(stream int, t float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t > g.streamReady[stream] {
		g.streamReady[stream] = t
	}
}

// Frontier returns when the device's engines next fall idle: the simulated
// "now" of the work issued on it, which a stream lifted from outside
// (LiftStream, a VP arriving) does not move.
func (g *GPU) Frontier() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Max(g.engineFree[:])
}

// Sync returns the simulated time at which all submitted work completes.
func (g *GPU) Sync() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var t float64
	for _, v := range g.engineFree {
		t = math.Max(t, v)
	}
	for _, v := range g.streamReady {
		t = math.Max(t, v)
	}
	return t
}

// BusySeconds returns the accumulated busy time of an engine.
func (g *GPU) BusySeconds(engine string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e := slices.Index(engineNames[:], engine); e >= 0 {
		return g.busy[e]
	}
	return 0
}

// BusyTotal returns the accumulated busy time summed across every engine —
// the device-load estimate least-loaded multi-GPU placement scores by. The
// sum walks engines in a fixed order so the float64 total is deterministic.
func (g *GPU) BusyTotal() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.busy[engH2D] + g.busy[engD2H] + g.busy[engCompute]
}
