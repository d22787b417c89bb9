package main

import (
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Below core.Handle the bench cannot see, so it replays batches itself on a
// bare device — coalesce.Apply → sched.Plan → Job.Run, the sequence of
// core's raw dispatch — and times each public call.

// bareGPU builds a device the way core.NewService configures its own.
func bareGPU(mode hostgpu.ExecMode, memBytes int64) *hostgpu.GPU {
	g := hostgpu.New(arch.Quadro4000(), memBytes)
	g.Mode = mode
	g.InOrderIssue = true
	g.Metrics = metrics.New()
	return g
}

// stageTimes accumulates the host time of each stage over replayed batches.
type stageTimes struct {
	batches, jobs int
	apply, plan   time.Duration
	run           map[string]time.Duration // engine → host time of unmerged jobs
	runN          map[string]int
	merged        time.Duration // host time of coalesced jobs
	mergedMembers int64
	reorder       int // Σ |planned position − arrival position|
	planned       int
	cycle         [][]*sched.Job // post-coalesce batches kept for the allocation probe
	failed        int64
	tr            *tracer // nil = no spans
}

func newStageTimes(tr *tracer) *stageTimes {
	return &stageTimes{run: map[string]time.Duration{}, runN: map[string]int{}, tr: tr}
}

// replayBatch runs one batch through the three stages on g; slot is the
// device's trace slot.
func (st *stageTimes) replayBatch(g *hostgpu.GPU, slot int, batch []*sched.Job, keep bool) {
	st.batches++
	st.jobs += len(batch)
	mergedBefore := g.Metrics.Counter("coalesce.jobs_merged").Value()

	t0 := time.Now()
	batch = coalesce.Apply(g, batch)
	t1 := time.Now()
	order := sched.Plan(batch, sched.PolicyInterleave)
	t2 := time.Now()
	st.apply += t1.Sub(t0)
	st.plan += t2.Sub(t1)

	if len(order) > 1 {
		arrival := make(map[*sched.Job]int, len(batch))
		for i, j := range batch {
			arrival[j] = i
		}
		for i, j := range order {
			d := i - arrival[j]
			if d < 0 {
				d = -d
			}
			st.reorder += d
		}
	}
	st.planned += len(order)
	if keep {
		st.cycle = append(st.cycle, batch)
	}

	for _, j := range order {
		t := time.Now()
		err := j.Run(g)
		if !j.Done() {
			j.Finish(err)
		}
		d := time.Since(t)
		if err != nil {
			st.failed++
		}
		if j.VP < 0 { // a coalesced job carries no owner
			st.merged += d
		} else {
			st.run[j.Engine] += d
			st.runN[j.Engine]++
		}
	}
	if st.tr != nil {
		t3, seq := time.Now(), int32(st.batches)
		parent := st.tr.add(slot, spanBatch, seq, -1, t0, t3)
		st.tr.add(slot, spanApply, seq, parent, t0, t1)
		st.tr.add(slot, spanPlan, seq, parent, t1, t2)
		st.tr.add(slot, spanRun, seq, parent, t2, t3)
	}
	st.mergedMembers += g.Metrics.Counter("coalesce.jobs_merged").Value() - mergedBefore
}

// planAllocs re-plans the kept batches and returns heap allocations per call.
func (st *stageTimes) planAllocs() float64 {
	if len(st.cycle) == 0 {
		return 0
	}
	const reps = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < reps; r++ {
		for _, b := range st.cycle {
			sched.Plan(b, sched.PolicyInterleave)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps*len(st.cycle))
}

// report turns the accumulated times into the sched/coalesce/hostgpu
// per-layer metrics.
func (st *stageTimes) report(m map[string]float64) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	b := float64(st.batches)
	m["sched.plan_us_per_batch"] = ratio(us(st.plan), b)
	m["sched.plan_allocs_per_batch"] = st.planAllocs()
	m["sched.batch_size_mean"] = ratio(float64(st.jobs), b)
	m["sched.reorder_distance_mean"] = ratio(float64(st.reorder), float64(st.planned))
	m["coalesce.apply_us_per_batch"] = ratio(us(st.apply), b)
	m["coalesce.merged_run_us_per_job"] = ratio(us(st.merged), float64(st.mergedMembers))
	for _, e := range []string{hostgpu.EngineH2D, hostgpu.EngineD2H, hostgpu.EngineCompute} {
		m["hostgpu.run_us_per_job_"+e] = ratio(us(st.run[e]), float64(st.runN[e]))
	}
}

// medianUS times fn reps times and returns the median in microseconds.
func medianUS(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t)) / 1e3
	}
	return median(ds)
}

// probeTiming measures the device model's launch pricing on one of the
// workload's own launches.
func probeTiming(g *hostgpu.GPU, l *hostgpu.Launch, m map[string]float64) error {
	var firstErr error
	m["hostgpu.launch_timing_us"] = medianUS(probeReps, func() {
		if _, _, _, err := g.LaunchTiming(l); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

const probeReps = 30

// probeMem measures single public calls of devmem, and the launch's native
// kernel if it has one, on the launch's own buffers in mem. It also returns
// the time one bind plus one write-back of all the launch's buffers takes.
func probeMem(mem *devmem.Mem, l *hostgpu.Launch, inputs map[string][]byte, m map[string]float64) (bindWritebackUS float64, err error) {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	env := &kpl.Env{NThreads: l.Threads(), Params: l.Params, Bufs: map[string]*kpl.Buffer{}}
	var bindUS, wbUS, rwUS, bindMB, wbMB, rwMB, allocUS float64
	for _, decl := range l.Kernel.Bufs {
		ptr := l.Bindings[decl.Name]
		size, err := mem.Size(ptr)
		note(err)
		mb := float64(size) / 1e6
		bindUS += medianUS(probeReps, func() {
			buf, err := mem.BindBuffer(ptr, decl.Elem)
			note(err)
			env.Bufs[decl.Name] = buf
		})
		bindMB += mb
		if !decl.ReadOnly {
			wbUS += medianUS(probeReps, func() { note(mem.WriteBuffer(ptr, env.Bufs[decl.Name])) })
			wbMB += mb
		}
		if in, ok := inputs[decl.Name]; ok {
			rwUS += medianUS(probeReps, func() {
				note(mem.Write(ptr, 0, in))
				_, err := mem.Read(ptr, 0, len(in))
				note(err)
			})
			rwMB += 2 * float64(len(in)) / 1e6
		}
		allocUS += medianUS(probeReps, func() {
			p, err := mem.Alloc(size)
			note(err)
			note(mem.Free(p))
		})
	}
	m["devmem.bind_us_per_mb"] = ratio(bindUS, bindMB)
	m["devmem.writeback_us_per_mb"] = ratio(wbUS, wbMB)
	m["devmem.rw_us_per_mb"] = ratio(rwUS, rwMB)
	m["devmem.alloc_free_us"] = ratio(allocUS, float64(len(l.Kernel.Bufs)))
	if l.Native != nil {
		us := medianUS(probeReps, func() { note(l.Native(env)) })
		m["kernels.native_us_per_kthread"] = ratio(us, float64(l.Threads())/1e3)
	}
	return bindUS + wbUS, firstErr
}

// meanInto averages per-application probe results into m.
func meanInto(m map[string]float64, probes []map[string]float64) {
	sums := map[string]float64{}
	for _, p := range probes {
		for k, v := range p {
			sums[k] += v
		}
	}
	for k, v := range sums {
		m[k] = v / float64(len(probes))
	}
}

// provision allocates a launch's buffers on a bare device and returns the
// bindings.
func provision(g *hostgpu.GPU, a *app) (map[string]devmem.Ptr, error) {
	ptrs := map[string]devmem.Ptr{}
	for _, decl := range a.bench.Kernel.Bufs {
		p, err := g.Mem.Alloc(a.work.BufBytes[decl.Name])
		if err != nil {
			return nil, err
		}
		ptrs[decl.Name] = p
	}
	return ptrs, nil
}
