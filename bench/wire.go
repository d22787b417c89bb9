package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/hostgpu"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// outcome is what one workload run produced: operation counts for the
// failure ratio, metric values by name, and lines for the human reader.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notef("FAIL: "+format, args...)
}

// setupReps is how often one process boots its workload to time set-up.
const setupReps = 3

// ops sizes a phase: rate × seconds operations, at least one.
func ops(rate, seconds float64) int64 { return max(int64(rate*seconds), 1) }

// timedSetups boots the workload setupReps times, reports the median boot
// time as setup_s and hands back the last one booted.
func timedSetups[T any](o *outcome, boot func() (T, error), drop func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			drop(last)
		}
		t0 := time.Now()
		v, err := boot()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	o.metrics["setup_s"] = median(times)
	return last, nil
}

// guestSamples returns every guest's samples and its simulated instructions
// per launch, the weights of minstr_per_s.
func (f *fleet) guestSamples() ([][]sample, []float64) {
	samples := make([][]sample, len(f.guests))
	minstr := make([]float64, len(f.guests))
	for i, g := range f.guests {
		samples[i], minstr[i] = g.samples, g.app.minstr
	}
	return samples, minstr
}

func (sv served) window(f *fleet) window {
	samples, minstr := f.guestSamples()
	return summarise(samples, minstr, int64(sv.from.at.Sub(sv.epoch)), int64(sv.to.at.Sub(sv.epoch)))
}

func (f *fleet) count(o *outcome, sv served) {
	for _, g := range f.guests {
		o.attempted += int64(len(g.samples))
	}
	o.attempted += int64(len(sv.livePauses))
	o.failed += sv.failed
	if sv.failed > 0 {
		o.notef("FAIL: %d guest requests or live migrations failed", sv.failed)
	}
}

// runWire runs one TCP workload. Untraced it reports the end-to-end metrics;
// traced it runs an untraced fleet for the baseline, a traced fleet for the
// spans, then the replay and probes for the layers below core.Handle.
func runWire(spec wireSpec, cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	if !cfg.trace {
		f, err := timedSetups(o, func() (*fleet, error) { return bootFleet(spec, cfg.seed, false) }, (*fleet).close)
		if err != nil {
			return nil, err
		}
		defer f.close()
		n := ops(spec.reqPerSecond, cfg.seconds)
		sv := f.serve(n/10, n, false)
		f.count(o, sv)
		w := sv.window(f)
		o.notef("window: %d requests in %.3f s, %d live migrations", w.requests, w.seconds, len(sv.livePauses))
		o.metrics["req_per_s"] = w.reqPerS
		o.metrics["req_p50_ms"] = w.p50
		o.metrics["req_p99_ms"] = w.p99
		o.metrics["minstr_per_s"] = w.minstrPerS
		if spec.migrateEvery > 0 {
			f.idle(o, map[string]float64{}) // for its checks; its rates are per-layer metrics
		}
		return o, nil
	}

	m := o.metrics
	base, err := bootFleet(spec, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	n := ops(spec.reqPerSecond, 0.35*cfg.seconds)
	sv := base.serve(n/3, n, true)
	base.count(o, sv)
	wBase := sv.window(base)
	base.close()
	hostMetrics(m, sv.from, sv.to, float64(wBase.requests))

	f, err := bootFleet(spec, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	placed := map[int]int{}
	for _, g := range f.guests {
		placed[g.id], _ = f.ms.Assignment(g.id)
	}
	sv = f.serve(n/3, n, false)
	f.count(o, sv)
	w := sv.window(f)
	o.notef("traced window: %d requests (untraced %d), %d live migrations", w.requests, wBase.requests, len(sv.livePauses))
	m["trace.overhead_frac"] = 1 - ratio(w.reqPerS, wBase.reqPerS)

	lt, err := f.tr.selfTimes()
	if err != nil {
		o.fail("%v", err)
	}
	cudartMetrics(m, lt, w)
	m["cudart.overload_retries"] = float64(f.client.Counter("cudart.overload_retries").Value())
	m["ipc.self_us_per_req"] = lt.ipcSelf
	reqs := float64(sv.to.requests - sv.from.requests)
	m["ipc.wire_bytes_per_req"] = ratio(float64(sv.to.wire-sv.from.wire), reqs)
	m["ipc.server_requests"] = reqs
	m["core.handle_us_per_req"] = lt.handle
	m["core.migrate_live_pause_p50_ms"] = median(sv.livePauses)

	t0 := time.Now()
	snap := f.ms.Snapshot()
	m["metrics.snapshot_ms"] = time.Since(t0).Seconds() * 1e3
	m["metrics.events_per_req"] = ratio(float64(len(snap.Events)), float64(f.transport.Counter("ipc.server.requests").Value()))
	adm := f.ms.AdmissionSnapshot()
	m["core.admission_admitted"] = float64(adm.CounterValue("core.admission.admitted"))
	m["core.admission_shed"] = float64(adm.CounterValue("core.admission.shed"))
	var launches int64
	for _, g := range f.guests {
		launches += g.launches
	}
	countMetrics(snap, f.ms.ExecSnapshot(), float64(snap.CounterValue("core.jobs_completed")), float64(launches), m)
	deviceGauges(f.ms, m)
	if spec.migrateEvery > 0 {
		f.idle(o, m)
	}

	if err := replayWire(f, placed, int(ops(spec.reqPerSecond, 0.1*cfg.seconds))/spec.vps, o); err != nil {
		return nil, err
	}
	return o, f.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload)
}

// cudartMetrics reports what the guest saw of its cudart calls in a traced
// window.
func cudartMetrics(m map[string]float64, lt layerTimes, w window) {
	m["cudart.self_us_per_req"] = lt.cudartSelf
	m["cudart.req_p50_ms"] = w.p50
	m["cudart.req_p99_ms"] = w.p99
	m["cudart.launch_p50_ms"] = w.kindP50[kindLaunch]
	m["cudart.h2d_p50_ms"] = w.kindP50[kindH2D]
	m["cudart.d2h_p50_ms"] = w.kindP50[kindD2H]
}

// countMetrics reads the public counters of farms that served jobs jobs, of
// which kernels were launches: executor health from exec, coalescer outcomes
// and the timing cache from snap.
func countMetrics(snap, exec metrics.Snapshot, jobs, kernels float64, m map[string]float64) {
	m["core.batch_jobs_mean"] = ratio(jobs, float64(exec.CounterValue("core.exec.batches")))
	m["core.exec_enqueue_stalls"] = float64(exec.CounterValue("core.exec.enqueue_stalls"))
	m["core.exec_stall_wait_ms"] = float64(exec.CounterValue("core.exec.stall_wait_ns")) / 1e6
	m["coalesce.merge_ratio"] = ratio(float64(snap.CounterValue("coalesce.jobs_merged")), kernels)
	m["coalesce.matches"] = float64(snap.CounterValue("coalesce.matches"))
	m["coalesce.wins"] = float64(snap.CounterValue("coalesce.wins"))
	m["coalesce.rejected"] = float64(snap.CounterValue("coalesce.rejected"))
	hits, misses := float64(snap.CounterValue("hostgpu.timing_cache.hits")), float64(snap.CounterValue("hostgpu.timing_cache.misses"))
	m["hostgpu.timing_cache_hit_ratio"] = ratio(hits, hits+misses)
}

// deviceGauges reads the per-device state no farm-wide snapshot sums
// meaningfully: simulated makespan and compute occupancy, memory high-water
// and executor queue high-water.
func deviceGauges(ms *core.MultiService, m map[string]float64) {
	makespan := ms.Sync()
	var busy, highWater, depth float64
	for i := 0; i < ms.Devices(); i++ {
		d := ms.Device(i)
		busy += d.GPU.BusySeconds(hostgpu.EngineCompute)
		highWater = max(highWater, float64(d.GPU.Mem.HighWater())/1e6)
		depth = max(depth, float64(d.ExecMetrics().Gauge("core.exec.queue_depth_hw").Value()))
	}
	m["hostgpu.sim_makespan_s"] = makespan
	m["hostgpu.sim_busy_frac_compute"] = ratio(busy, makespan*float64(ms.Devices()))
	m["devmem.high_water_mb"] = highWater
	m["core.exec_queue_depth_hw"] = depth
}

// idle is farm-migrate's second phase: every guest has hung up, its buffers
// are still resident, and the farm moves and checkpoints them. It is also an
// oracle: no admission reservation may be left, every image must survive
// decode(encode(image)), and after 64 moves each VP's output buffers must
// still hold the reference bytes.
func (f *fleet) idle(o *outcome, m map[string]float64) {
	const moves, images = 64, 8
	for _, g := range f.ms.AdmissionSnapshot().Gauges {
		o.attempted++
		if g.Value != 0 {
			o.fail("admission gauge %s = %d with the fleet idle", g.Name, g.Value)
		}
	}

	moved := f.ms.MigrationSnapshot().CounterValue("core.migrate.bytes_moved")
	var moveSec float64
	for i := 0; i < moves; i++ {
		vp := i % f.spec.vps
		cur, _ := f.ms.Assignment(vp)
		t0 := time.Now()
		err := f.ms.Migrate(vp, (cur+1)%f.spec.devices)
		moveSec += time.Since(t0).Seconds()
		o.attempted++
		if err != nil {
			o.fail("idle migration %d: %v", i, err)
		}
	}
	mig := f.ms.MigrationSnapshot()
	moved = mig.CounterValue("core.migrate.bytes_moved") - moved
	m["core.migrate_mb_per_s"] = ratio(float64(moved)/1e6, moveSec)
	m["core.migrate_ptrs_rebased"] = float64(mig.CounterValue("core.migrate.ptrs_rebased"))

	var encSec, decSec, imageMB float64
	for i := 0; i < images; i++ {
		o.attempted++
		ck, err := f.ms.Checkpoint()
		if err != nil {
			o.fail("checkpoint %d: %v", i, err)
			continue
		}
		t0 := time.Now()
		data, err := ck.Encode(core.CheckpointBinary)
		t1 := time.Now()
		if err != nil {
			o.fail("encode %d: %v", i, err)
			continue
		}
		back, err := core.DecodeCheckpoint(data)
		t2 := time.Now()
		encSec += t1.Sub(t0).Seconds()
		decSec += t2.Sub(t1).Seconds()
		imageMB += float64(len(data)) / 1e6
		if err != nil || !sameCheckpoint(ck, back) {
			o.fail("checkpoint %d does not survive decode(encode()): %v", i, err)
		}
		if i == 0 {
			f.checkResident(o, ck)
		}
	}
	m["core.ckpt_encode_mb_per_s"] = ratio(imageMB, encSec)
	m["core.ckpt_decode_mb_per_s"] = ratio(imageMB, decSec)
	m["core.ckpt_mb_per_s"] = ratio(imageMB, encSec+decSec)
	o.notef("idle phase: %d migrations moved %.1f MB in %.1f ms; %d images of %.1f MB", moves, float64(moved)/1e6, moveSec*1e3, images, imageMB/images)
}

// checkResident compares each guest's output buffers in a farm image with
// the reference outputs its last round left there.
func (f *fleet) checkResident(o *outcome, ck *core.Checkpoint) {
	for _, g := range f.guests {
		for name, want := range g.app.want {
			o.attempted++
			found := false
			for _, v := range ck.VPs {
				if v.VP != g.id {
					continue
				}
				for _, a := range v.Allocs {
					if a.Ptr == g.ptrs[name] {
						found = bytes.Equal(a.Data, want)
					}
				}
			}
			if !found {
				o.fail("vp %d: buffer %q lost its bytes across the idle migrations", g.id, name)
			}
		}
	}
}

func sameCheckpoint(a, b *core.Checkpoint) bool {
	if b == nil || a.Devices != b.Devices || len(a.VPs) != len(b.VPs) {
		return false
	}
	for i, x := range a.VPs {
		y := b.VPs[i]
		if x.VP != y.VP || x.Device != y.Device || x.Registered != y.Registered ||
			len(x.Allocs) != len(y.Allocs) || len(x.Streams) != len(y.Streams) {
			return false
		}
		for k := range x.Allocs {
			if x.Allocs[k].Ptr != y.Allocs[k].Ptr || !bytes.Equal(x.Allocs[k].Data, y.Allocs[k].Data) {
				return false
			}
		}
		for k := range x.Streams {
			if x.Streams[k] != y.Streams[k] {
				return false
			}
		}
	}
	return true
}

// replayWire replays the fleet's ideal lock-step batches — request k of every
// VP placed on a device forms that device's batch k — on bare devices, for the
// given number of batches per device, then probes single calls on each
// application's launch.
func replayWire(f *fleet, placed map[int]int, batches int, o *outcome) error {
	type replica struct {
		g    *guest
		gpu  *hostgpu.GPU
		l    *hostgpu.Launch
		ops  []func() *sched.Job
		outs []string // output buffer of each D2H op, by op index
	}
	gpus := make([]*hostgpu.GPU, f.spec.devices)
	for i := range gpus {
		gpus[i] = bareGPU(hostgpu.ExecFull, 1<<30)
	}
	byDev := make([][]*replica, f.spec.devices)
	for _, g := range f.guests {
		r := &replica{g: g, gpu: gpus[placed[g.id]]}
		ptrs, err := provision(r.gpu, g.app)
		if err != nil {
			return err
		}
		r.l = g.app.bench.NewLaunch(g.app.work)
		r.l.Bindings = ptrs
		w, vp, stream := g.app.work, g.id, core.VPStream(g.id, 0)
		add := func(out string, op func() *sched.Job) {
			r.ops = append(r.ops, op)
			r.outs = append(r.outs, out)
		}
		for _, decl := range g.app.bench.Kernel.Bufs {
			if in, ok := w.Inputs[decl.Name]; ok {
				add("", func() *sched.Job { return sched.NewH2D(vp, stream, ptrs[decl.Name], 0, in) })
			}
		}
		for i := 0; i < f.spec.launches; i++ {
			for _, name := range g.app.rezero {
				add("", func() *sched.Job { return sched.NewMemset(vp, stream, ptrs[name], 0, w.BufBytes[name], 0) })
			}
			add("", func() *sched.Job {
				j := sched.NewKernel(vp, stream, r.l)
				j.Coalescable = g.app.bench.Coalescable
				return j
			})
		}
		for _, name := range w.OutBufs {
			add(name, func() *sched.Job { return sched.NewD2H(vp, stream, ptrs[name], 0, w.BufBytes[name]) })
		}
		byDev[placed[g.id]] = append(byDev[placed[g.id]], r)
	}

	st := newStageTimes(f.tr)
	for k := 0; k < max(batches, 8); k++ {
		for d, rs := range byDev {
			batch := make([]*sched.Job, len(rs))
			for i, r := range rs {
				batch[i] = r.ops[k%len(r.ops)]()
			}
			st.replayBatch(gpus[d], f.spec.vps+d, batch, d == 0 && k < len(rs[0].ops))
			for i, r := range rs {
				if out := r.outs[k%len(r.ops)]; out != "" {
					o.attempted++
					if !bytes.Equal(batch[i].Data, r.g.app.want[out]) {
						o.fail("replay: vp %d D2H of %q differs from the reference", r.g.id, out)
					}
				}
			}
		}
	}
	o.failed += st.failed
	st.report(o.metrics)
	o.notef("replay: %d batches, %d jobs", st.batches, st.jobs)

	// Probe one launch per application and average over applications.
	seen := map[string]bool{}
	var probes []map[string]float64
	for _, rs := range byDev {
		for _, r := range rs {
			name := r.g.app.bench.Name
			if seen[name] {
				continue
			}
			seen[name] = true
			p := map[string]float64{}
			if err := probeTiming(r.gpu, r.l, p); err != nil {
				o.fail("probe %s: %v", name, err)
			}
			if _, err := probeMem(r.gpu.Mem, r.l, r.g.app.work.Inputs, p); err != nil {
				o.fail("probe %s: %v", name, err)
			}
			probes = append(probes, p)
		}
	}
	meanInto(o.metrics, probes)
	return nil
}
