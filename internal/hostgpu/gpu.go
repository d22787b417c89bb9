package hostgpu

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/devmem"
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

// ExecMode selects whether kernel launches execute functionally.
type ExecMode uint8

// Execution modes.
const (
	// ExecFull runs the kernel's semantics against device memory (native
	// implementation when provided, interpreter otherwise) and advances the
	// simulated clock.
	ExecFull ExecMode = iota
	// ExecTimingOnly advances the simulated clock without touching buffer
	// contents — used by large parameter sweeps where only time matters.
	ExecTimingOnly
)

// Interval is a [start, end) span in simulated seconds.
type Interval struct {
	Start, End float64
}

// Duration returns End − Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Launch describes one kernel invocation.
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

	// Native optionally supplies compiled semantics for ExecFull mode; the
	// interpreter is the fallback. It must be safe for concurrent calls on
	// distinct environments: the pieces of a coalesced launch run it side by
	// side.
	Native func(env *kpl.Env) error

	// SigmaOverride, when non-nil, bypasses σ derivation — used by Kernel
	// Coalescing, where the merged launch's instruction count is the sum of
	// its constituents rather than a function of the merged parameters.
	SigmaOverride *arch.ClassVec

	// AccessesOverride, when non-nil, bypasses access-stream derivation for
	// the cache model (same coalescing use).
	AccessesOverride []cachemodel.Access

	// ExecOverride, when non-nil, replaces kernel execution entirely in
	// ExecFull mode (the coalescer runs each constituent piece in place, on
	// its member's own allocations). It receives the owning device's memory,
	// and its error is returned as it is.
	ExecOverride func(mem *devmem.Mem) error
}

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

	// ComputeSlots > 1 enables Concurrent Kernel Execution: up to that many
	// kernels from distinct streams overlap on the compute engine. The paper
	// notes CKE "may automatically interleave kernels from distinct streams"
	// but "can lead to suboptimal performance" (Fig. 3a) — overlapping
	// kernels share issue bandwidth, so each runs proportionally slower.
	ComputeSlots int

	// Trace optionally records the engine timeline.
	Trace *trace.Log

	// Metrics optionally receives device counters: per-engine op counts and
	// busy time, CKE slot occupancy, timing-cache hits/misses. A nil registry
	// is a no-op.
	Metrics *metrics.Registry

	// Workers sizes the worker pool for block-parallel functional kernel
	// interpretation in ExecFull mode (0 = runtime.NumCPU(), 1 = serial).
	// Simulated-time results are identical for every value.
	Workers int

	// NoTimingCache disables the launch-signature timing cache (for
	// equivalence testing; the cache never changes results).
	NoTimingCache bool

	mu           sync.Mutex
	engineFree   map[string]float64
	computeSlots []float64 // per-slot free times under CKE
	streamReady  map[int]float64
	lastIssue    float64
	busy         map[string]float64 // accumulated busy seconds per engine
	kernelEnergy float64            // accumulated kernel energies (dynamic + per-launch static)

	cacheMu     sync.RWMutex
	timingCache map[string]*timingEntry
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// New returns a GPU with the given descriptor and device memory capacity.
func New(a arch.GPU, memBytes int64) *GPU {
	return &GPU{
		Arch:        a,
		Mem:         devmem.New(memBytes),
		engineFree:  map[string]float64{},
		streamReady: map[int]float64{},
		busy:        map[string]float64{},
		timingCache: map[string]*timingEntry{},
	}
}

// schedule places an operation of the given duration on an engine,
// respecting stream order, engine availability, and (when enabled) in-order
// issue. It returns the op's interval.
func (g *GPU) schedule(engine string, stream int, dur float64, label string) Interval {
	g.mu.Lock()
	cke := engine == EngineCompute && g.ComputeSlots > 1 && !g.Serialize
	var slot int
	var engineReady float64
	if cke {
		if len(g.computeSlots) != g.ComputeSlots {
			g.computeSlots = make([]float64, g.ComputeSlots)
		}
		slot = 0
		for i, t := range g.computeSlots {
			if t < g.computeSlots[slot] {
				slot = i
			}
		}
		engineReady = g.computeSlots[slot]
	} else {
		engineReady = g.engineFree[engine]
	}
	start := math.Max(g.streamReady[stream], engineReady)
	occupancy := 1.0
	if cke {
		// Sharing the SMs: the kernel slows down in proportion to the
		// kernels already in flight at its start (static fair share — the
		// reason CKE alone "can lead to suboptimal performance", Fig. 3a).
		for i, t := range g.computeSlots {
			if i != slot && t > start {
				occupancy++
			}
		}
		dur *= occupancy
	}
	if g.Serialize {
		for _, t := range g.engineFree {
			start = math.Max(start, t)
		}
	}
	if g.InOrderIssue {
		start = math.Max(start, g.lastIssue)
	}
	g.lastIssue = start
	end := start + dur
	if cke {
		g.computeSlots[slot] = end
		if end > g.engineFree[engine] {
			g.engineFree[engine] = end
		}
	} else {
		g.engineFree[engine] = end
	}
	g.streamReady[stream] = end
	g.busy[engine] += dur
	g.mu.Unlock()
	if g.Trace != nil {
		g.Trace.Add(trace.Record{Engine: engine, Stream: stream, Label: label, Start: start, End: end})
	}
	if g.Metrics != nil {
		g.Metrics.Counter("hostgpu.ops." + engine).Inc()
		g.Metrics.Counter("hostgpu.engine_busy_ns." + engine).Add(int64(math.Round(dur * 1e9)))
		if cke {
			g.Metrics.Histogram("hostgpu.cke_occupancy", metrics.CountBuckets).Observe(occupancy)
		}
	}
	return Interval{Start: start, End: end}
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
// engine and returns the transfer interval. In timing-only mode the bytes
// are not materialized (bounds are still checked).
func (g *GPU) CopyH2D(stream int, dst devmem.Ptr, off int, src []byte) (Interval, error) {
	if g.Mode == ExecTimingOnly {
		size, err := g.Mem.Size(dst)
		if err != nil {
			return Interval{}, err
		}
		if !devmem.InRange(off, len(src), size) {
			return Interval{}, fmt.Errorf("hostgpu: H2D [%d,%d) outside allocation of %d bytes", off, off+len(src), size)
		}
	} else if err := g.Mem.Write(dst, off, src); err != nil {
		return Interval{}, err
	}
	dur := CopyTime(&g.Arch, len(src))
	return g.schedule(EngineH2D, stream, dur, g.sizeLabel("H2D", len(src))), nil
}

// CopyD2H transfers n bytes from device memory at src+off back to the host:
// into dst[:n] when the caller brings the destination (a response frame of at
// least n bytes; the bytes are then copied once and nothing is allocated),
// into a fresh slice when dst is nil. In timing-only mode no bytes are
// returned (bounds are still checked).
func (g *GPU) CopyD2H(stream int, src devmem.Ptr, off, n int, dst []byte) ([]byte, Interval, error) {
	var data []byte
	if g.Mode == ExecTimingOnly {
		size, err := g.Mem.Size(src)
		if err != nil {
			return nil, Interval{}, err
		}
		if !devmem.InRange(off, n, size) {
			return nil, Interval{}, fmt.Errorf("hostgpu: D2H [%d,%d) outside allocation of %d bytes", off, off+n, size)
		}
	} else {
		var err error
		if dst != nil {
			data = dst[:n]
			err = g.Mem.ReadInto(src, off, data)
		} else {
			data, err = g.Mem.Read(src, off, n)
		}
		if err != nil {
			return nil, Interval{}, err
		}
	}
	dur := CopyTime(&g.Arch, n)
	iv := g.schedule(EngineD2H, stream, dur, g.sizeLabel("D2H", n))
	return data, iv, nil
}

// Launch dispatches a kernel on the compute engine: it resolves σ and the
// access streams, evaluates the timing model, optionally executes the kernel
// functionally, and returns the profiler's view of the run.
func (g *GPU) Launch(stream int, l *Launch) (*profile.Profile, Interval, error) {
	if l.Kernel == nil || l.Prog == nil {
		return nil, Interval{}, fmt.Errorf("hostgpu: launch without kernel or program")
	}
	if l.Grid <= 0 || l.Block <= 0 {
		return nil, Interval{}, fmt.Errorf("hostgpu: %s: invalid launch %d×%d", l.Kernel.Name, l.Grid, l.Block)
	}

	sigma, _, timing, err := g.LaunchTiming(l)
	if err != nil {
		return nil, Interval{}, err
	}

	if g.Mode == ExecFull {
		if l.ExecOverride != nil {
			if err := l.ExecOverride(g.Mem); err != nil {
				return nil, Interval{}, err
			}
		} else {
			env, err := l.Bind("hostgpu", g.Mem)
			if err != nil {
				return nil, Interval{}, err
			}
			if err := l.Exec("hostgpu", g.Mem, env, nil, g.Workers); err != nil {
				return nil, Interval{}, err
			}
		}
	}

	iv := g.schedule(EngineCompute, stream, timing.Seconds, l.Kernel.Name)
	energy := KernelEnergy(&g.Arch, sigma, timing)
	g.mu.Lock()
	g.kernelEnergy += energy
	g.mu.Unlock()
	p := &profile.Profile{
		Kernel:          l.Kernel.Name,
		Arch:            g.Arch.Name,
		Shape:           l.Shape(),
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
	return p, iv, nil
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

// ResolveSigma derives the launch's σ on this device's architecture and its
// cache-model access streams, honouring overrides and sampling λ for
// data-dependent kernels (paper footnote 2). The coalescer uses it to price
// the pieces of a merged launch. Results are memoized by launch signature
// whenever the derivation cannot depend on live buffer contents.
func (g *GPU) ResolveSigma(l *Launch) (arch.ClassVec, []cachemodel.Access, error) {
	var buf keyBuf
	key, cacheable := g.appendTimingKey(buf[:0], l)
	if cacheable {
		if e := g.cacheLookup(key); e != nil {
			return e.sigma, e.accesses, nil
		}
	}
	sigma, accesses, err := g.deriveSigma(l)
	if err == nil && cacheable {
		g.cacheStore(key, &timingEntry{sigma: sigma, accesses: accesses})
	}
	return sigma, accesses, err
}

// deriveSigma is the uncached σ/access-stream derivation behind ResolveSigma.
// It touches device bytes only to sample: when the launch brings no Dyn and
// the kernel has a data-dependent loop, every parameter is bound as a view
// (the sampler clones the writable ones itself) and λ measured on it;
// otherwise the bindings are only checked, with the errors a bind would give.
func (g *GPU) deriveSigma(l *Launch) (arch.ClassVec, []cachemodel.Access, error) {
	if l.SigmaOverride != nil {
		return *l.SigmaOverride, l.AccessesOverride, nil
	}
	dyn := l.Dyn
	sample := dyn == nil && l.Prog.NeedsDynamicProfile()
	env, err := l.bind("hostgpu", func(ptr devmem.Ptr, decl *kpl.BufDecl) (*kpl.Buffer, error) {
		if !sample {
			return nil, g.Mem.CheckBind(ptr)
		}
		return g.Mem.BindView(ptr, decl.Elem)
	})
	if err != nil {
		return arch.ClassVec{}, nil, err
	}
	if sample {
		if dyn, err = SampleDyn(l.Kernel, l.Prog, env, nil); err != nil {
			return arch.ClassVec{}, nil, fmt.Errorf("hostgpu: %s: pre-launch sampling: %w", l.Kernel.Name, err)
		}
	}
	kl := kir.Launch{NThreads: l.Threads(), Params: l.Params}
	sigma, err := l.Prog.Sigma(&g.Arch, kl, dyn)
	if err != nil {
		return arch.ClassVec{}, nil, fmt.Errorf("hostgpu: %s: %w", l.Kernel.Name, err)
	}
	accesses, err := g.accessStreams(l, kl, dyn)
	if err != nil {
		return arch.ClassVec{}, nil, err
	}
	return sigma, accesses, nil
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
// Exec writes back on success (devmem.Mem.BindParam). Bind and Exec are the
// functional half of a launch on any device model; who ("hostgpu", "emul")
// prefixes their errors. The coalescer runs each piece of a merged launch
// through Bind and Exec's two halves, Run and WriteBack, with every Run before
// any WriteBack.
func (l *Launch) Bind(who string, mem *devmem.Mem) (*kpl.Env, error) {
	return l.bind(who, mem.BindParam)
}

// bind is Bind with the per-parameter rule left to the caller.
func (l *Launch) bind(who string, param func(devmem.Ptr, *kpl.BufDecl) (*kpl.Buffer, error)) (*kpl.Env, error) {
	env := &kpl.Env{NThreads: l.Threads(), Params: l.Params, Bufs: map[string]*kpl.Buffer{}}
	if env.Params == nil {
		env.Params = map[string]kpl.Value{}
	}
	for i := range l.Kernel.Bufs {
		decl := &l.Kernel.Bufs[i]
		ptr, ok := l.Bindings[decl.Name]
		if !ok {
			return nil, fmt.Errorf("%s: %s: buffer %q not bound", who, l.Kernel.Name, decl.Name)
		}
		buf, err := param(ptr, decl)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: buffer %q: %w", who, l.Kernel.Name, decl.Name, err)
		}
		env.Bufs[decl.Name] = buf
	}
	return env, nil
}

// Exec is Run, then WriteBack when the kernel returned without error.
func (l *Launch) Exec(who string, mem *devmem.Mem, env *kpl.Env, st *kpl.Stats, workers int) error {
	if err := l.Run(who, env, st, workers); err != nil {
		return err
	}
	return l.WriteBack(mem, env)
}

// Run runs the kernel's semantics over env (from Bind) — the native
// implementation when the launch has one, otherwise its thread blocks fanned
// out over workers, bit-identical to serial interpretation and counted into st
// when that is non-nil. It touches env only: device memory is as it was until
// WriteBack.
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
// guest, as the interpreter's out-of-range access does, not unwind the
// device's executor goroutine. Any other panic is a bug and is re-raised.
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
// were bound from.
func (l *Launch) WriteBack(mem *devmem.Mem, env *kpl.Env) error {
	for _, decl := range l.Kernel.Bufs {
		if decl.ReadOnly {
			continue
		}
		if err := mem.WriteBuffer(l.Bindings[decl.Name], env.Bufs[decl.Name]); err != nil {
			return err
		}
	}
	return nil
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
		ptr, ok := l.Bindings[decl.Name]
		if !ok {
			return nil, fmt.Errorf("hostgpu: %s: buffer %q not bound", l.Kernel.Name, decl.Name)
		}
		size, err := g.Mem.Size(ptr)
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
	if g.Mode == ExecTimingOnly {
		size, err := g.Mem.Size(dst)
		if err != nil {
			return Interval{}, err
		}
		if !devmem.InRange(off, n, size) {
			return Interval{}, fmt.Errorf("hostgpu: memset of %d bytes at %d outside allocation of %d bytes", n, off, size)
		}
	} else if err := g.Mem.Fill(dst, off, n, value); err != nil {
		return Interval{}, err
	}
	dur := float64(n) / (g.Arch.MemBWGBps * 1e9)
	return g.schedule(EngineCompute, stream, dur, g.sizeLabel("memset", n)), nil
}

// ChargeD2D prices a copy of n bytes between two device allocations through
// device memory at MemBW — one chunk of the memory merge of Kernel Coalescing
// (paper Fig. 5) — and moves nothing: the simulated device pays for the
// gather and the scatter, while the host runs each piece of a merged launch on
// the member's own allocations.
func (g *GPU) ChargeD2D(stream, n int) Interval {
	dur := float64(n) / (g.Arch.MemBWGBps * 1e9)
	return g.schedule(EngineH2D, stream, dur, g.sizeLabel("D2D", n))
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
	return g.busy[engine]
}

// BusyTotal returns the accumulated busy time summed across every engine —
// the device-load estimate least-loaded multi-GPU placement scores by. The
// sum walks engines in a fixed order so the float64 total is deterministic.
func (g *GPU) BusyTotal() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.busy[EngineH2D] + g.busy[EngineD2H] + g.busy[EngineCompute]
}

// ResetClock rewinds the simulated clock to zero without touching device
// memory, starting a fresh measurement window.
func (g *GPU) ResetClock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.engineFree = map[string]float64{}
	g.computeSlots = nil
	g.streamReady = map[int]float64{}
	g.lastIssue = 0
	g.busy = map[string]float64{}
	g.kernelEnergy = 0
	if g.Trace != nil {
		g.Trace.Reset()
	}
}
