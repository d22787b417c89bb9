package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// lockstep-timing is the BENCH_7 multi-GPU study (internal/experiments
// MultiGPUScaling) driven in lock-step through MultiService.DispatchBatch in
// timing-only mode: no wire, no buffer contents, only sched, coalesce, the
// hostgpu timing model and metrics run. It is deterministic, so simulated
// results are compared exactly.
const (
	lockVPs   = 16
	lockScale = 8
	// lockPassesPerSecond sizes the fixed work: a run of -seconds s makes
	// lockPassesPerSecond × s passes over the three fleet sizes (this box's
	// rate, provisioning included, at the commit that added the benchmark).
	lockPassesPerSecond = 16
)

var (
	mixApps      = []string{"vectorAdd", "BlackScholes", "scalarProd", "reduction", "matrixMul"}
	lockDevices  = []int{1, 2, 4}
	lockMakespan = []float64{0.02910723052443609, 0.012931557496240574, 0.008457388203007518} // BENCH_7.json
)

// lockVP is one VP's workload materialised on its device.
type lockVP struct {
	dev    int
	app    *app
	launch *hostgpu.Launch
	ptrs   map[string]devmem.Ptr
}

// lockPoint is one fleet size of the study, booted either as a served farm
// (ms) or as bare devices for the replay (gpus).
type lockPoint struct {
	ms   *core.MultiService
	gpus []*hostgpu.GPU
	vps  []lockVP
}

// lockStudy is the three points plus the seeded order in which the VPs'
// jobs are listed in a batch.
type lockStudy struct {
	apps   []*app
	order  []int // VP ids in batch-assembly order
	points []*lockPoint
}

func bootLockStudy(seed int64, bare bool) (*lockStudy, error) {
	s := &lockStudy{order: make([]int, lockVPs)}
	for _, name := range mixApps {
		a, err := loadApp(name, lockScale)
		if err != nil {
			return nil, err
		}
		if a.bench.Prog.NeedsDynamicProfile() {
			return nil, fmt.Errorf("%s needs sampled loop statistics, which this study does not provision", name)
		}
		s.apps = append(s.apps, a)
	}
	// VP id runs application id mod 5 on device id mod devices, as in
	// BENCH_7, for every seed: the work per device does not depend on the
	// seed. Seed 1 also assembles batches in VP order, so BENCH_7's goldens
	// apply; other seeds permute that order, which the planner sees.
	for id := range s.order {
		s.order[id] = id
	}
	if seed != 1 {
		s.order = rand.New(rand.NewSource(seed)).Perm(lockVPs)
	}
	if err := s.reboot(bare); err != nil {
		return nil, err
	}
	return s, nil
}

// reboot replaces the points with fresh ones: a device's simulated clock only
// moves forward, so every pass needs new devices.
func (s *lockStudy) reboot(bare bool) error {
	s.close()
	s.points = s.points[:0]
	for _, nDev := range lockDevices {
		p := &lockPoint{}
		if bare {
			for i := 0; i < nDev; i++ {
				p.gpus = append(p.gpus, bareGPU(hostgpu.ExecTimingOnly, 1<<33))
			}
		} else {
			opts := core.DefaultOptions()
			opts.Mode = hostgpu.ExecTimingOnly
			opts.MemBytes = 1 << 33
			gpus := make([]arch.GPU, nDev)
			for i := range gpus {
				gpus[i] = arch.Quadro4000()
			}
			ms, err := core.NewMultiService(opts, gpus)
			if err != nil {
				return err
			}
			p.ms = ms
			for i := 0; i < nDev; i++ {
				p.gpus = append(p.gpus, ms.Device(i).GPU)
			}
		}
		s.points = append(s.points, p)
		for id := 0; id < lockVPs; id++ {
			dev := id % nDev // round-robin placement in registration order
			if p.ms != nil {
				p.ms.RegisterVP(id)
				if got, _ := p.ms.Assignment(id); got != dev {
					return fmt.Errorf("vp %d placed on device %d, expected %d", id, got, dev)
				}
			}
			a := s.apps[id%len(mixApps)]
			ptrs, err := provision(p.gpus[dev], a)
			if err != nil {
				return err
			}
			for name, in := range a.work.Inputs {
				if err := p.gpus[dev].Mem.Write(ptrs[name], 0, in); err != nil {
					return err
				}
			}
			l := a.bench.NewLaunch(a.work)
			l.Bindings = ptrs
			p.vps = append(p.vps, lockVP{dev: dev, app: a, launch: l, ptrs: ptrs})
		}
	}
	return nil
}

func (s *lockStudy) close() {
	for _, p := range s.points {
		if p.ms != nil {
			p.ms.Close()
		}
	}
}

// roundBatches builds iteration it's job burst of every still-running VP,
// split by device — experiments' phaseJobs, job for job.
func (p *lockPoint) roundBatches(it int, order []int) (batches [][]*sched.Job, owners [][]int) {
	batches = make([][]*sched.Job, len(p.gpus))
	owners = make([][]int, len(p.gpus))
	for _, id := range order {
		v := p.vps[id]
		b, w := v.app.bench, v.app.work
		if it >= b.Iterations {
			continue
		}
		add := func(j *sched.Job) {
			batches[v.dev] = append(batches[v.dev], j)
			owners[v.dev] = append(owners[v.dev], id)
		}
		if b.CopyEachIteration || it == 0 {
			for _, decl := range b.Kernel.Bufs {
				if in, ok := w.Inputs[decl.Name]; ok {
					add(sched.NewH2D(id, id, v.ptrs[decl.Name], 0, in))
				}
			}
		}
		kj := sched.NewKernel(id, id, v.launch)
		kj.Coalescable = b.Coalescable
		add(kj)
		if b.CopyEachIteration || it == b.Iterations-1 {
			for _, name := range w.OutBufs {
				add(sched.NewD2H(id, id, v.ptrs[name], 0, w.BufBytes[name]))
			}
		}
	}
	return batches, owners
}

func (p *lockPoint) rounds() int {
	n := 0
	for _, v := range p.vps {
		n = max(n, v.app.bench.Iterations)
	}
	return n
}

func jobKind(j *sched.Job) uint8 {
	switch {
	case j.Launch != nil:
		return kindLaunch
	case j.Engine == hostgpu.EngineH2D:
		return kindH2D
	}
	return kindD2H
}

// lockRun accumulates passes on one measured clock that only advances inside
// dispatch→drain windows; provisioning between passes is outside it.
type lockRun struct {
	clock   int64      // ns of measured time so far
	samples [][]sample // per VP; a job's latency is its round's window
	minstr  []float64
	// jobs and kernel launches of one pass (every pass is the same)
	jobs, kernels float64
	// first pass's simulated results, the reference for later passes
	makespan []float64
	digest   [][32]byte
}

// servedPass dispatches every point's rounds through DispatchBatch with a
// drain barrier per round (the guests are closed-loop: iteration n+1 is
// issued when n has retired), then checks the simulated results.
func (r *lockRun) servedPass(s *lockStudy, seed int64, o *outcome) error {
	r.jobs, r.kernels = 0, 0
	for pi, p := range s.points {
		for it := 0; it < p.rounds(); it++ {
			batches, owners := p.roundBatches(it, s.order)
			t0 := time.Now()
			for dev, b := range batches {
				if len(b) > 0 {
					p.ms.DispatchBatch(dev, b)
				}
			}
			p.ms.Drain()
			lat := int64(time.Since(t0))
			r.clock += lat
			for dev, b := range batches {
				for i, j := range b {
					id := owners[dev][i]
					r.samples[id] = append(r.samples[id], sample{end: r.clock, lat: lat, kind: jobKind(j)})
					o.attempted++
					r.jobs++
					if j.Launch != nil {
						r.kernels++
					}
					if j.Err != nil {
						o.fail("%d devices: vp %d job %q: %v", len(p.gpus), id, j.Label, j.Err)
					}
				}
			}
		}
		for id := 0; id < lockVPs; id++ {
			p.ms.UnregisterVP(id)
		}
		makespan := p.ms.Sync()
		js, err := p.ms.Snapshot().JSON()
		if err != nil {
			return err
		}
		digest := sha256.Sum256(js)
		o.attempted++
		switch {
		case len(r.makespan) <= pi:
			r.makespan, r.digest = append(r.makespan, makespan), append(r.digest, digest)
			if seed == 1 && makespan != lockMakespan[pi] {
				o.fail("%d devices: simulated makespan %v, BENCH_7 golden %v", len(p.gpus), makespan, lockMakespan[pi])
			}
		case makespan != r.makespan[pi]:
			o.fail("%d devices: simulated makespan %v, first pass %v", len(p.gpus), makespan, r.makespan[pi])
		case digest != r.digest[pi]:
			o.fail("%d devices: simulated-registry snapshot differs from the first pass", len(p.gpus))
		}
	}
	return nil
}

func newLockRun(s *lockStudy) *lockRun {
	r := &lockRun{samples: make([][]sample, lockVPs), minstr: make([]float64, lockVPs)}
	for id := range r.minstr {
		r.minstr[id] = s.apps[id%len(mixApps)].minstr
	}
	return r
}

// passes reboots and runs n passes, returning the measured clock at which it
// started. It leaves the study used: reboot before the next call.
func (r *lockRun) passes(s *lockStudy, n int64, seed int64, o *outcome) (from int64, err error) {
	from = r.clock
	for i := int64(0); i < n; i++ {
		if i > 0 {
			if err := s.reboot(false); err != nil {
				return from, err
			}
		}
		if err := r.servedPass(s, seed, o); err != nil {
			return from, err
		}
	}
	return from, nil
}

func runLockstep(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	boot := func() (*lockStudy, error) { return bootLockStudy(cfg.seed, false) }
	if !cfg.trace {
		s, err := timedSetups(o, boot, (*lockStudy).close)
		if err != nil {
			return nil, err
		}
		defer s.close()
		r := newLockRun(s)
		n := ops(lockPassesPerSecond, cfg.seconds)
		if _, err := r.passes(s, max(n/10, 1), cfg.seed, o); err != nil {
			return nil, err
		}
		if err := s.reboot(false); err != nil {
			return nil, err
		}
		from, err := r.passes(s, n, cfg.seed, o)
		if err != nil {
			return nil, err
		}
		w := summarise(r.samples, r.minstr, from, r.clock)
		o.notef("window: %d passes, %d jobs in %.3f s of dispatch→drain time; 4-device makespan %v s", n, w.requests, w.seconds, r.makespan[len(r.makespan)-1])
		m["req_per_s"] = w.reqPerS
		m["req_p50_ms"] = w.p50
		m["req_p99_ms"] = w.p99
		m["minstr_per_s"] = w.minstrPerS
		return o, nil
	}

	s, err := boot()
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := newLockRun(s)
	n := ops(lockPassesPerSecond, 0.35*cfg.seconds)
	if _, err := r.passes(s, max(n/3, 1), cfg.seed, o); err != nil {
		return nil, err
	}
	if err := s.reboot(false); err != nil {
		return nil, err
	}
	h0 := hostMark()
	from, err := r.passes(s, n, cfg.seed, o)
	if err != nil {
		return nil, err
	}
	hostMetrics(m, h0, hostMark(), float64(summarise(r.samples, r.minstr, from, r.clock).requests))

	// Counts come from the last pass's three farms together (at four devices
	// no two VPs on a device run the same kernel, so only the smaller fleets
	// coalesce); the simulated gauges from its 4-device farm.
	var snaps, execs []metrics.Snapshot
	t0 := time.Now()
	for _, p := range s.points {
		snaps = append(snaps, p.ms.Snapshot())
		execs = append(execs, p.ms.ExecSnapshot())
	}
	snap := metrics.MergeSnapshots(snaps...)
	m["metrics.snapshot_ms"] = time.Since(t0).Seconds() * 1e3
	m["metrics.events_per_req"] = ratio(float64(len(snap.Events)), r.jobs)
	countMetrics(snap, metrics.MergeSnapshots(execs...), r.jobs, r.kernels, m)
	deviceGauges(s.points[len(s.points)-1].ms, m)

	// Replay the same batches stage by stage on bare devices. If that does
	// not reach the same simulated makespans it is not the computation core
	// performs, and its stage times describe something else.
	tr := newTracer(lockDevices[len(lockDevices)-1])
	st := newStageTimes(tr)
	bare, err := bootLockStudy(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		if i > 0 {
			if err := bare.reboot(true); err != nil {
				return nil, err
			}
		}
		for pi, p := range bare.points {
			for it := 0; it < p.rounds(); it++ {
				batches, _ := p.roundBatches(it, bare.order)
				for dev, b := range batches {
					if len(b) > 0 {
						st.replayBatch(p.gpus[dev], dev, b, pi == 0 && len(st.cycle) < p.rounds())
					}
				}
			}
			var makespan float64
			for _, g := range p.gpus {
				makespan = max(makespan, g.Sync())
			}
			o.attempted++
			if makespan != r.makespan[pi] {
				return nil, fmt.Errorf("replay-equivalence guard: %d devices replayed to makespan %v, DispatchBatch reached %v; per-layer numbers are invalid",
					len(p.gpus), makespan, r.makespan[pi])
			}
		}
	}
	o.failed += st.failed
	st.report(m)
	o.notef("replay: %d batches, %d jobs, makespans equal to the served run", st.batches, st.jobs)
	v := bare.points[0].vps[0]
	if err := probeTiming(bare.points[0].gpus[0], v.launch, m); err != nil {
		o.fail("probe: %v", err)
	}
	if _, err := tr.selfTimes(); err != nil {
		o.fail("%v", err)
	}
	return o, tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload)
}
