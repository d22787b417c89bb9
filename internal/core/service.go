package core

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configure a service.
type Options struct {
	Arch     arch.GPU
	MemBytes int64
	// Mode is every device's execution mode. A timing-only device is built
	// by hostgpu.NewTimingOnly and keeps no host bytes, so a launch that
	// needs λ and brings none (every served one of them) is refused there.
	Mode hostgpu.ExecMode

	// Policy selects FIFO (baseline) or interleaved dispatch.
	Policy sched.Policy
	// Coalesce enables the Kernel Match + merge pass.
	Coalesce bool
	// Trace records the engine timeline.
	Trace bool
	// EstimateTarget, when non-nil on a traced device, is the Time/Power
	// Estimation module's target (paper Fig. 2, Section 4): each kernel job
	// whose λ is known adds one trace.KindEstimate record with the target's
	// predicted time and power (hostgpu.Launch.Estimate). An untraced device
	// computes no estimate and keeps nothing.
	EstimateTarget *arch.GPU

	// Admission bounds what guests may keep in flight (per-VP/device/farm
	// quotas and a token-bucket rate limit); excess requests are shed at the
	// service door with a typed, retryable overload error instead of
	// blocking an IPC worker. The zero value admits everything. Served and
	// in-process jobs are admitted alike (MultiService.submit); the raw
	// batches of DispatchRaw/DispatchBatch are not.
	Admission AdmissionOptions

	// FairShare > 0 caps how many jobs one VP contributes per dispatched
	// batch (weighted fair dequeue): a hot VP's overflow waits for the next
	// batch instead of monopolising the round. 0 drains everything, the
	// historical behaviour.
	FairShare int
}

// DefaultOptions returns a fully-optimized service on a Quadro 4000.
func DefaultOptions() Options {
	return Options{
		Arch:     arch.Quadro4000(),
		MemBytes: 1 << 30,
		Mode:     hostgpu.ExecFull,
		Policy:   sched.PolicyInterleave,
		Coalesce: true,
	}
}

// Service is the ΣVP host-side runtime.
type Service struct {
	GPU  *hostgpu.GPU
	opts Options

	metrics *metrics.Registry
	queue   *sched.Queue

	// VP state is sharded: each VP's stop/run bookkeeping lives in its own
	// vpState with its own lock, so with pipelined IPC clients the handlers
	// of independent VPs never contend. regMu guards only the registry shape
	// (the shard map and the sorted id list) and is write-locked only on
	// register/unregister — the hot path (WaitJob, allStopped) takes it
	// shared.
	regMu sync.RWMutex
	vps   map[int]*vpState // every VP seen; shards survive reconnects
	order []int            // sorted ids of registered VPs (snapshot order)

	// dispatchMu serializes batch drain + submit to the executor. Without it,
	// two goroutines can both observe the all-stopped predicate, drain
	// separate batches, and interleave their jobs' Run calls, breaking
	// per-(VP,stream) ordering on the device.
	dispatchMu sync.Mutex

	// exec is the device's execution pipeline; adm is the farm's admission
	// gate (nil with Options.Admission zero), in which this device is number
	// dev. Both record host families (see hostFamilies) into the service
	// registry.
	exec *executor
	adm  *admission
	dev  int

	moved  devmem.Moves // as of the last countMoves
	elided int64        // GPU.Elided as of the last countMoves
}

// vpState is one VP's shard: its VP-control state and its pointer table.
type vpState struct {
	mu      sync.Mutex
	blocked int // handlers parked in WaitJob; > 0 means stopped (Fig. 4b)
	// allocs maps each guest pointer the VP holds onto its device pointer on
	// this device. The two are equal at allocation time; they differ only
	// when a restore could not reclaim the original address and rebased the
	// allocation (see restoreVP). Every pointer a request names is
	// translated through it (translate), so a VP reaches no device memory
	// but its own.
	allocs map[devmem.Ptr]devmem.Ptr
}

// shard returns the VP's state shard, creating it on first contact. A VP
// that was never registered (in-process harnesses call WaitJob directly)
// still gets a shard: its blocked count simply never gates dispatch.
func (s *Service) shard(vp int) *vpState {
	s.regMu.RLock()
	st := s.vps[vp]
	s.regMu.RUnlock()
	if st != nil {
		return st
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if st = s.vps[vp]; st == nil {
		st = &vpState{}
		s.vps[vp] = st
	}
	return st
}

// newService builds a device service over a fresh simulated host GPU. Only
// its farm builds one for the product, and hands it the farm's admission
// gate (NewMultiServicePlaced).
func newService(opts Options) *Service {
	if opts.MemBytes <= 0 {
		opts.MemBytes = 1 << 30
	}
	newGPU := hostgpu.New
	if opts.Mode == hostgpu.ExecTimingOnly {
		newGPU = hostgpu.NewTimingOnly
	}
	g := newGPU(opts.Arch, opts.MemBytes)
	g.InOrderIssue = true // the single hardware work queue of Fig. 3
	// The unoptimized service dispatches conservatively: one job at a time,
	// engines never overlapping (the 3N·T baseline). Kernel Interleaving
	// pipelines the engines.
	g.Serialize = opts.Policy == sched.PolicyFIFO
	if opts.Trace {
		g.Trace = trace.New()
	}
	reg := metrics.New()
	g.Metrics = reg
	q := sched.NewQueue()
	q.Metrics = reg
	if opts.FairShare > 0 {
		q.SetFairShare(opts.FairShare)
	}
	s := &Service{
		GPU:     g,
		opts:    opts,
		metrics: reg,
		queue:   q,
		vps:     map[int]*vpState{},
	}
	s.exec = newExecutor(s)
	return s
}

// Options returns the service configuration.
func (s *Service) Options() Options { return s.opts }

// hostFamilies are the instrument families that measure the host, not the
// simulated device: wall-clock state, exempt from the metrics determinism
// contract and left out of every Snapshot. This list is the only place an
// instrument's domain is decided.
var hostFamilies = []string{"core.exec.", "core.admission.", "core.migrate.", "ipc.server."}

// Metrics returns the service's registry (never nil): service counters and
// the counters of every subsystem the service owns
// (device model, queue, coalescer, executor, admission gate).
func (s *Service) Metrics() *metrics.Registry { return s.metrics }

// RegisterVP announces a VP to the batching logic.
func (s *Service) RegisterVP(id int) {
	s.regMu.Lock()
	if s.vps[id] == nil {
		s.vps[id] = &vpState{}
	}
	i := sort.SearchInts(s.order, id)
	if i == len(s.order) || s.order[i] != id {
		s.order = append(s.order, 0)
		copy(s.order[i+1:], s.order[i:])
		s.order[i] = id
	}
	s.metrics.Gauge("core.vps_active").Set(int64(len(s.order)))
	s.regMu.Unlock()
}

// deregister drops the VP from the registered set. Its shard stays: parked
// WaitJob handlers still decrement their blocked count through it, and a
// reconnect reuses it.
func (s *Service) deregister(id int) {
	s.regMu.Lock()
	i := sort.SearchInts(s.order, id)
	if i < len(s.order) && s.order[i] == id {
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
	s.metrics.Gauge("core.vps_active").Set(int64(len(s.order)))
	s.regMu.Unlock()
}

// UnregisterVP removes a VP at a clean point (its application finished and
// synced); pending work may dispatch as a result.
func (s *Service) UnregisterVP(id int) {
	s.deregister(id)
	s.maybeDispatch()
}

// ErrCancelled marks jobs orphaned by a VP disconnect: the VP vanished
// mid-batch, so its still-queued jobs are finished with this error instead
// of running (or worse, wedging the all-stopped predicate as a ghost VP that
// never stops).
var ErrCancelled = errors.New("job cancelled: vp disconnected")

// DisconnectVP removes a VP that vanished abruptly (its IPC connection
// died). Unlike UnregisterVP it cancels the VP's still-queued jobs —
// finishing them with ErrCancelled wakes any handler blocked waiting on
// them — and then lets the surviving VPs' pending work dispatch. Use it as
// the ipc server's disconnect hook.
func (s *Service) DisconnectVP(id int) {
	s.deregister(id)
	// Drain the pipeline before stamping cancellation records: the simulated
	// clock must reflect every batch dispatched before the disconnect.
	s.Drain()
	for _, j := range s.queue.RemoveVP(id) {
		s.releaseJob(j)
		if !j.Done() {
			j.Finish(fmt.Errorf("core: vp %d: %w", id, ErrCancelled))
			s.metrics.Counter("core.jobs_cancelled").Inc()
			s.metrics.Gauge("core.jobs_in_flight").Sub(1)
			s.markJob(trace.KindCancelled, j, s.GPU.Frontier(), 0, ErrCancelled)
		}
	}
	s.maybeDispatch()
}

// Submit enqueues a job without waiting. The job's submit time is the
// device's engine frontier, not Sync: a VP migrating in lifts its stream
// clocks while others submit, and Sync would see that.
func (s *Service) Submit(j *sched.Job) {
	j.SubmitTime = s.GPU.Frontier()
	s.metrics.Counter("core.jobs_submitted").Inc()
	s.metrics.Gauge("core.jobs_in_flight").Add(1)
	s.queue.Push(j)
	s.maybeDispatch()
}

// WaitJob blocks the calling VP until the job completes. While blocked, the
// VP counts as *stopped* — exactly the VP Control mechanism: once every
// active VP is stopped at a synchronous point, the accumulated batch is
// re-scheduled and dispatched (paper Fig. 4b). blocked is a counter, not a
// flag: a pipelined client can park several handlers of one VP in WaitJob
// at once, and the VP stays stopped until the last of them wakes.
func (s *Service) WaitJob(vp int, j *sched.Job) error {
	st := s.shard(vp)
	st.mu.Lock()
	st.blocked++
	st.mu.Unlock()
	s.maybeDispatch()
	err := j.Wait()
	// Wake only once the whole batch has retired, not just this job: the VP
	// then resumes against the same post-batch device state whoever ran the
	// batch (its next SubmitTime reads the same clock), and no submit ever
	// overlaps a dispatch while every VP is registered.
	j.AwaitRetired()
	st.mu.Lock()
	st.blocked--
	st.mu.Unlock()
	return err
}

// allStopped reports whether every registered VP is parked at a synchronous
// point. The snapshot walks the sorted id list under the shared registry
// lock, taking each shard's lock in that deterministic order.
func (s *Service) allStopped() bool {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	for _, id := range s.order {
		st := s.vps[id]
		st.mu.Lock()
		stopped := st.blocked > 0
		st.mu.Unlock()
		if !stopped {
			return false
		}
	}
	return true
}

// feed drains the queue into the execution pipeline, batch by batch, while
// work is pending and — unless force is set — every active VP is stopped (or
// none are registered). The whole drain-and-submit sequence holds dispatchMu
// so concurrent callers cannot interleave two batches (drain order is
// execution order).
func (s *Service) feed(force bool) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	for s.queue.Len() > 0 && (force || s.allStopped()) {
		s.runBatch(s.queue.DrainBatch(), s.metrics)
	}
}

// maybeDispatch feeds the pipeline if VP Control allows it: every active VP
// is parked at a synchronous point.
func (s *Service) maybeDispatch() { s.feed(false) }

// flushAsync feeds everything pending into the execution pipeline regardless
// of VP states, without waiting for it to retire. MultiService uses it to
// start all devices before draining any, so a farm flush overlaps the
// devices' simulations in wall clock.
func (s *Service) flushAsync() { s.feed(true) }

// Flush dispatches everything pending regardless of VP states and waits for
// it to retire.
func (s *Service) Flush() {
	s.flushAsync()
	s.Drain()
}

// Drain blocks until every batch handed to the execution pipeline has fully
// retired, running queued batches on the caller while the executor's token is
// free. It is the barrier behind every read of device state. There is
// nothing to close: a pipeline with no work holds no goroutine.
func (s *Service) Drain() { s.exec.drain() }

// ExecMetrics is Metrics, kept for the benchmark module, which reads the
// executor's core.exec.* gauges through it.
func (s *Service) ExecMetrics() *metrics.Registry { return s.metrics }

// AdmissionLoad returns the device's reservation totals in the admission
// gate (jobs, bytes); zero with admission off.
func (s *Service) AdmissionLoad() (jobs int, bytes int64) {
	if s.adm == nil {
		return 0, 0
	}
	d := s.adm.device(s.dev)
	return d.jobs, d.bytes
}

// AdmissionHighWater returns the highest reservation totals (jobs, bytes)
// the admission gate has held for the device; zero with admission off. It is
// kept under the gate's lock with every reservation, so no peak is missed.
// Not a registry gauge: an idle farm's admission gauges all read zero.
func (s *Service) AdmissionHighWater() (jobs int, bytes int64) {
	if s.adm == nil {
		return 0, 0
	}
	d := s.adm.device(s.dev)
	return d.peakJobs, d.peakBytes
}

// admitJob passes one job through the farm's admission gate. A nil return
// means the job was admitted and now holds a quota reservation (released by
// the dispatcher on completion or the disconnect path on cancellation). A
// non-nil return is the shed: nothing is reserved.
func (s *Service) admitJob(j *sched.Job) *OverloadError {
	if s.adm == nil {
		return nil
	}
	oe := s.adm.admit(s.dev, j.VP, j.Bytes)
	j.Admitted = oe == nil
	return oe
}

// releaseJob returns an admitted job's quota reservation, exactly once.
func (s *Service) releaseJob(j *sched.Job) {
	if j.Admitted {
		j.Admitted = false
		s.adm.release(s.dev, j.VP, j.Bytes)
	}
}

// Snapshot drains the pipeline and snapshots the simulated domain of the
// registry: everything but the host families.
func (s *Service) Snapshot() metrics.Snapshot {
	s.Drain()
	return s.metrics.Without(hostFamilies...)
}

// runBatch hands one drained batch to the executor. Caller holds dispatchMu.
// Every job is bound to its batch's retirement signal first, so WaitJob wakes
// VPs at the same points whoever runs the batch.
func (s *Service) runBatch(batch []*sched.Job, rec *metrics.Registry) {
	if len(batch) == 0 {
		return
	}
	done := make(chan struct{})
	for _, j := range batch {
		j.BindBatch(done)
	}
	s.exec.submit(execBatch{jobs: batch, rec: rec, done: done})
}

// DispatchRaw runs one externally-assembled batch through the Re-scheduler
// and the device without service accounting — the deterministic path the
// experiments use. The batch is enqueued and DispatchRaw returns without
// waiting. The caller owes a barrier — Sync, Drain or Flush — before it
// reads the device or waits on a job: a batch alone in the queue starts no
// runner, and the barrier runs it (see executor).
func (s *Service) DispatchRaw(batch []*sched.Job) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.runBatch(batch, nil)
}

// dispatch runs one batch through the Re-scheduler and the device. Served
// batches pass the service registry as rec and get each job's completion
// counted into it; raw batches (DispatchRaw) pass nil — plan and run only,
// the accounting loop is skipped rather than fed a no-op sink. On a traced
// device each job's ops are stamped with its VP and its submit and plan
// times, a job the device refuses leaves a KindFailed record, and with an
// estimate target each submitted kernel job leaves a KindEstimate one.
func (s *Service) dispatch(batch []*sched.Job, rec *metrics.Registry) {
	orig := batch // the submitted jobs, before coalescing swallows members
	if s.opts.Coalesce {
		batch = coalesce.Apply(s.GPU, batch)
	}
	order := sched.PlanRecorded(batch, s.opts.Policy, rec)
	traced := s.GPU.Trace != nil
	var plan float64
	if traced {
		plan = s.GPU.Frontier() // the clock Submit reads, so submit ≤ plan
	}
	for _, j := range order {
		if traced {
			s.GPU.SetTraceJob(j.VP, j.SubmitTime, plan)
		}
		err := j.Run(s.GPU)
		if !j.Done() {
			j.Finish(err)
		}
		if err != nil {
			s.markJob(trace.KindFailed, j, plan, plan, err)
		}
	}
	if traced && s.opts.EstimateTarget != nil {
		for _, j := range orig {
			s.markEstimate(j, plan)
		}
	}
	s.countMoves()
	if rec == nil {
		return
	}
	// Completion accounting covers the *submitted* jobs: coalesced members
	// never appear in the planned order, but the merged job's run fills their
	// intervals and finishes them.
	lat := rec.Histogram("core.dispatch_latency_s", metrics.LatencyBuckets)
	for _, j := range orig {
		s.releaseJob(j)
		if j.Err != nil {
			rec.Counter("core.jobs_failed").Inc()
		}
		rec.Counter("core.jobs_completed").Inc()
		rec.Gauge("core.jobs_in_flight").Sub(1)
		if d := j.Interval.Start - j.SubmitTime; d >= 0 {
			lat.Observe(d)
		} else {
			// The job started on an idle engine before the global sim
			// frontier it was submitted at: zero queueing delay.
			lat.Observe(0)
		}
	}
}

// markJob records, on a traced device, a job event that took no engine time:
// the job refused or cancelled at t, after a batch planned at plan (0 if it
// never reached one).
func (s *Service) markJob(kind string, j *sched.Job, t, plan float64, err error) {
	if s.GPU.Trace != nil {
		s.GPU.Trace.Add(trace.Record{
			Kind: kind, Engine: j.Engine, Stream: j.Stream, Label: j.Label, Start: t, End: t,
			VP: j.VP, Submit: j.SubmitTime, Plan: plan, Err: err.Error(),
		})
	}
}

// markEstimate records a run kernel job's estimate for the target at the end
// of its run (hostgpu.Launch.Estimate). A member of a coalesced launch is
// estimated like any other kernel: from its own launch and pricing and the
// thread-proportional share of the merged profile the coalescer gave it. Jobs
// without a launch or a profile (copies, failed launches) and kernels whose λ
// is unknown get no record.
func (s *Service) markEstimate(j *sched.Job, plan float64) {
	if j.Launch == nil || j.Priced == nil || j.Profile == nil || j.Err != nil {
		return
	}
	res, err := j.Launch.Estimate(&s.GPU.Arch, s.opts.EstimateTarget, j.Priced, j.Profile)
	if err != nil {
		return
	}
	end := j.Interval.End
	s.GPU.Trace.Add(trace.Record{
		Kind: trace.KindEstimate, Engine: j.Engine, Stream: j.Stream, Label: j.Label, Start: end, End: end,
		VP: j.VP, Submit: j.SubmitTime, Plan: plan,
		HostSec: j.Profile.TimeSec, TargetSec: res.TimeC2, TargetW: res.PowerW,
	})
}

// countMoves adds the batch's devmem.Moves, and the launches whose functional
// half it skipped (hostgpu.GPU.Elide), to the core.exec counters, each
// appearing once non-zero. Only the token holder running the batch calls it,
// so moved and elided have one owner.
func (s *Service) countMoves() {
	mv := s.GPU.Mem.Moves()
	add := func(name string, n int64) {
		if n != 0 {
			s.metrics.Counter(name).Add(n)
		}
	}
	add("core.exec.h2d_adopted_bytes", mv.AdoptedBytes-s.moved.AdoptedBytes)
	add("core.exec.h2d_copied_bytes", mv.CopiedBytes-s.moved.CopiedBytes)
	add("core.exec.h2d_unchanged_bytes", mv.UnchangedBytes-s.moved.UnchangedBytes)
	add("core.exec.writebacks_swapped", mv.Swapped-s.moved.Swapped)
	add("core.exec.writebacks_copied", mv.Copied-s.moved.Copied)
	add("core.exec.bind_uncopied_bytes", mv.UncopiedBytes-s.moved.UncopiedBytes)
	elided := s.GPU.Elided()
	add("core.exec.launches_elided", elided-s.elided)
	s.moved, s.elided = mv, elided
}

// Sync returns the simulated completion time of all dispatched work,
// draining the execution pipeline first.
func (s *Service) Sync() float64 {
	s.Drain()
	return s.GPU.Sync()
}

// QueuedJobs returns the number of jobs waiting in the service queue — the
// queued-work half of the load estimate least-loaded placement scores by.
func (s *Service) QueuedJobs() int { return s.queue.Len() }

// BusySeconds returns the device's accumulated busy time across all engines
// (the hostgpu half of the load estimate).
func (s *Service) BusySeconds() float64 { return s.GPU.BusyTotal() }

// ActiveVPs returns the number of currently registered VPs.
func (s *Service) ActiveVPs() int {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return len(s.order)
}

// SessionEnergy returns the host GPU's energy over the session (kernel
// energies plus static power across the simulated span), draining the
// execution pipeline first.
func (s *Service) SessionEnergy() float64 {
	s.Drain()
	return s.GPU.SessionEnergy()
}

// Trace returns the engine timeline, if enabled, as it stands: it does not
// drain, so a reader that needs every dispatched batch in it syncs first
// (Sync, Flush or Snapshot), and the daemon's /trace neither waits behind nor
// runs a batch. The log takes its own lock.
func (s *Service) Trace() *trace.Log { return s.GPU.Trace }

// The job builders, one per request kind, are what MultiService.submit calls
// for the served route and the in-process one alike: the guest stream mapped
// into the VP's window, every guest pointer translated through the VP's table
// and one the VP does not own refused before any job exists. Offsets and
// lengths are checked when the job runs, by the memory: until then the
// allocation may still be freed or replaced.

// h2dJob builds an H2D job. A payload the transport owns (the served route)
// may be adopted; data from anyone else is copied.
func (s *Service) h2dJob(vp, stream int, dst devmem.Ptr, off int, data []byte, owned *devmem.Payload) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	if dst, err = s.ResolvePtr(vp, dst); err != nil {
		return nil, err
	}
	if owned != nil {
		return sched.NewH2DFrom(vp, dev, dst, off, owned), nil
	}
	return sched.NewH2D(vp, dev, dst, off, data), nil
}

// d2hJob builds a D2H job. With frame non-nil (the served route) the bytes go
// from the device straight into a response frame of the transport's, left in
// *frame and sized only once [off, off+n) is known to lie inside the
// allocation; a request that fails that check gets a plain job and its error.
// The frame goes back to the pool from the service only when the job was shed
// before it was queued (MultiService.serve): a cancelled job may still hold
// it.
func (s *Service) d2hJob(vp, stream int, src devmem.Ptr, off, n int, frame *ipc.D2HResp) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	if src, err = s.ResolvePtr(vp, src); err != nil {
		return nil, err
	}
	if frame != nil && s.opts.Mode != hostgpu.ExecTimingOnly {
		if s.GPU.Mem.CheckRead(src, off, n) == nil {
			if *frame = ipc.NewD2HResp(n); frame.Data != nil {
				return sched.NewD2HInto(vp, dev, src, off, frame.Data), nil
			}
		}
	}
	return sched.NewD2H(vp, dev, src, off, n), nil
}

func (s *Service) memsetJob(vp, stream int, dst devmem.Ptr, off, n int, value byte) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	if dst, err = s.ResolvePtr(vp, dst); err != nil {
		return nil, err
	}
	return sched.NewMemset(vp, dev, dst, off, n, value), nil
}

// kernelJob builds a launch's job. It is the service's door for launches: one
// that breaks the launch contract (hostgpu.Launch.Check) is refused here,
// before admission, whichever route brought it. Every binding is translated,
// rebased ones through a copy of the launch, never by mutating the caller's,
// and the Kernel Match stage's coalescability comes from the registry entry
// of the kernel's name.
func (s *Service) kernelJob(vp, stream int, l *hostgpu.Launch) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	if err := l.Check(); err != nil {
		return nil, err
	}
	var rebased map[string]devmem.Ptr
	for name, guest := range l.Bindings {
		dev, err := s.ResolvePtr(vp, guest)
		if err != nil {
			return nil, err
		}
		if dev != guest {
			if rebased == nil {
				rebased = maps.Clone(l.Bindings)
			}
			rebased[name] = dev
		}
	}
	if rebased != nil {
		moved := *l
		moved.Bindings = rebased
		l = &moved
	}
	j := sched.NewKernel(vp, dev, l)
	if bench, err := kernels.Get(l.Kernel.Name); err == nil {
		j.Coalescable = bench.Coalescable
	}
	return j, nil
}

// launchOf reconstructs a launch from a wire request via the kernel registry:
// launches arrive by name.
func launchOf(r ipc.LaunchReq) (*hostgpu.Launch, error) {
	b, err := kernels.Get(r.Kernel)
	if err != nil {
		return nil, err
	}
	l := &hostgpu.Launch{
		Kernel:            b.Kernel,
		Prog:              b.Prog,
		Grid:              r.Grid,
		Block:             r.Block,
		SharedMemPerBlock: r.SharedMem,
		RegsPerThread:     r.Regs,
		Params:            r.Params,
		Bindings:          r.Bindings,
		Native:            b.Native,
	}
	return l, nil
}

// streamsPerVP is the size of each VP's device-stream window. Guest streams
// outside [0, streamsPerVP) are rejected rather than silently aliased onto a
// neighboring VP's window (vp*64+stream mapped VP0's stream 64 onto VP1's
// stream 0, serializing unrelated VPs' work).
const streamsPerVP = 1 << 16

// streamOf maps (VP, guest stream) onto a device stream: each VP gets its
// own stream space, the paper's "separate streams for each VP".
func streamOf(vp, guestStream int) (int, error) {
	if guestStream < 0 || guestStream >= streamsPerVP {
		return 0, fmt.Errorf("core: vp %d: guest stream %d out of range [0, %d)", vp, guestStream, streamsPerVP)
	}
	return vp*streamsPerVP + guestStream, nil
}

// VPStream maps a VP's guest stream onto the device-stream window the
// service uses internally. Raw-batch harnesses (DispatchRaw/DispatchBatch)
// build jobs with it so their stream clocks land in the owning VP's window —
// the namespace checkpointVP captures and a migration transfers. Guest
// streams outside the window clamp to its base.
func VPStream(vp, guestStream int) int {
	s, err := streamOf(vp, guestStream)
	if err != nil {
		return vp * streamsPerVP
	}
	return s
}
