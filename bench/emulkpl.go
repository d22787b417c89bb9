package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// emul-kpl is the paper's emulation baseline: one VP whose cudart context
// sits on the emulated device, and launches without a native implementation,
// so kpl's compiled engine executes every thread. The serving workloads never
// execute kpl (every registry kernel has a native form), which makes this the
// only workload a kpl engine change can move.
var emulApps = []string{"vectorAdd", "BlackScholes", "matrixMul", "reduction"}

// emulRoundsPerSecond sizes the fixed work: a run of -seconds s makes
// emulRoundsPerSecond × s rounds, each every application once (this box's
// rate at the commit that added the benchmark).
const emulRoundsPerSecond = 70

type emulRig struct {
	dev      *emul.Device
	guests   []*guest // one per application, all on VP 0's context, in seeded order
	interpNS float64  // reference interpreter, ns per thread, measured while building the oracle
}

// bootEmul builds the device, allocates every application's buffers and
// computes the oracle: the reference interpreter's outputs.
func bootEmul(seed int64, tr *tracer) (*emulRig, error) {
	r := &emulRig{dev: emul.New(arch.ARMVersatile(), 1<<30)}
	ctx := cudart.NewContext(0, cudart.NewEmulBackend(r.dev))
	var interp time.Duration
	var threads int
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(emulApps)) {
		a, err := newApp(emulApps[i], 1)
		if err != nil {
			return nil, err
		}
		env, err := kernels.BuildEnv(a.bench, a.work)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		a.want, err = a.outputs(env, func(e *kpl.Env) error { return a.bench.Kernel.InterpretAll(e, nil) })
		if err != nil {
			return nil, err
		}
		interp += time.Since(t0)
		threads += a.work.Threads()

		g := &guest{id: 0, app: a, ctx: ctx, ptrs: map[string]devmem.Ptr{}, tr: tr}
		g.launch = a.bench.NewLaunch(a.work)
		g.launch.Native = nil // force kpl execution
		for _, decl := range a.bench.Kernel.Bufs {
			if g.ptrs[decl.Name], err = ctx.Malloc(a.work.BufBytes[decl.Name]); err != nil {
				return nil, err
			}
		}
		g.launch.Bindings = g.ptrs
		r.guests = append(r.guests, g)
	}
	r.interpNS = ratio(float64(interp), float64(threads))
	return r, nil
}

// rounds runs n rounds (every application once) and returns the interval
// they covered on epoch's clock.
func (r *emulRig) rounds(epoch time.Time, n int64) (from, to int64) {
	from = int64(time.Since(epoch))
	for i := int64(0); i < n; i++ {
		for _, g := range r.guests {
			g.round(epoch, 1)
		}
	}
	return from, int64(time.Since(epoch))
}

func (r *emulRig) window(from, to int64) window {
	samples := make([][]sample, len(r.guests))
	minstr := make([]float64, len(r.guests))
	for i, g := range r.guests {
		samples[i], minstr[i] = g.samples, g.app.minstr
	}
	return summarise(samples, minstr, from, to)
}

func (r *emulRig) count(o *outcome) {
	for _, g := range r.guests {
		o.attempted += int64(len(g.samples))
		o.failed += g.failed
		if g.failed > 0 {
			o.notef("FAIL: %s: %d calls failed or returned bytes that differ from the interpreter's", g.app.bench.Name, g.failed)
		}
	}
}

func runEmul(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	epoch := time.Now()
	if !cfg.trace {
		r, err := timedSetups(o, func() (*emulRig, error) { return bootEmul(cfg.seed, nil) }, func(*emulRig) {})
		if err != nil {
			return nil, err
		}
		n := ops(emulRoundsPerSecond, cfg.seconds)
		r.rounds(epoch, max(n/10, 1))
		w := r.window(r.rounds(epoch, n))
		r.count(o)
		o.notef("window: %d rounds, %d calls in %.3f s", n, w.requests, w.seconds)
		m["req_per_s"] = w.reqPerS
		m["req_p50_ms"] = w.p50
		m["req_p99_ms"] = w.p99
		m["minstr_per_s"] = w.minstrPerS
		return o, nil
	}

	tr := newTracer(1)
	r, err := bootEmul(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	n := ops(emulRoundsPerSecond, 0.35*cfg.seconds)
	r.rounds(epoch, max(n/3, 1))
	h0 := hostMark()
	wBase := r.window(r.rounds(epoch, n))
	hostMetrics(m, h0, hostMark(), float64(wBase.requests))

	tr.on.Store(true)
	w := r.window(r.rounds(epoch, n))
	tr.on.Store(false)
	r.count(o)
	m["trace.overhead_frac"] = 1 - ratio(w.reqPerS, wBase.reqPerS)
	lt, err := tr.selfTimes()
	if err != nil {
		o.fail("%v", err)
	}
	cudartMetrics(m, lt, w)
	m["devmem.high_water_mb"] = float64(r.dev.Mem.HighWater()) / 1e6
	m["kpl.interp_ns_per_thread"] = r.interpNS

	// Probe the engine and the emulated device on each application's launch.
	var probes []map[string]float64
	for _, g := range r.guests {
		p := map[string]float64{}
		l, k := g.launch, g.launch.Kernel
		bindWritebackUS, err := probeMem(r.dev.Mem, l, g.app.work.Inputs, p)
		if err != nil {
			o.fail("probe %s: %v", k.Name, err)
		}
		note := func(err error) {
			if err != nil {
				o.fail("probe %s: %v", k.Name, err)
			}
		}
		p["kpl.compile_us"] = medianUS(probeReps, func() { _, err := kpl.Compile(k); note(err) })
		env, err := kernels.BuildEnv(g.app.bench, g.app.work)
		note(err)
		p["kpl.exec_ns_per_thread"] = 1e3 * medianUS(5, func() { note(k.ExecBlocks(env, kpl.NewStats(), l.Block, 0)) }) / float64(l.Threads())
		p["emul.launch_us"] = medianUS(5, func() { _, _, err := r.dev.Launch(l); note(err) })
		p["emul.bind_writeback_frac"] = ratio(bindWritebackUS, p["emul.launch_us"])
		probes = append(probes, p)
	}
	meanInto(m, probes)
	return o, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload)
}
