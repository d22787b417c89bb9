package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configure a service.
type Options struct {
	Arch     arch.GPU
	MemBytes int64
	Mode     hostgpu.ExecMode

	// Policy selects FIFO (baseline) or interleaved dispatch.
	Policy sched.Policy
	// Coalesce enables the Kernel Match + merge pass.
	Coalesce bool
	// Trace records the engine timeline.
	Trace bool
	// EstimateTarget, when non-nil, attaches the Time/Power Estimation
	// module: every kernel launch also yields the target GPU's predicted
	// execution time and power (paper Fig. 2, Section 4).
	EstimateTarget *arch.GPU

	// ComputeSlots > 1 enables the device's Concurrent Kernel Execution —
	// the hardware feature the paper contrasts its software re-scheduling
	// against (Fig. 3a).
	ComputeSlots int

	// Workers sizes the worker pool for block-parallel kernel interpretation
	// on the host GPU model (0 = runtime.NumCPU(), 1 = serial). Simulated
	// time and profiles are identical for every value.
	Workers int

	// Metrics receives the service's counters and the structured job trace
	// (submitted → scheduled → dispatched → completed/cancelled). Nil creates
	// a fresh registry, available via Service.Metrics().
	Metrics *metrics.Registry

	// Pipeline starts the service's executor goroutine: drained batches are
	// enqueued to it instead of running on the submitter's goroutine, so
	// guest submission overlaps device simulation and an N-device farm
	// simulates N devices concurrently in wall clock. Off, the same executor
	// runs each batch inline on the submitter — the synchronous reference for
	// bisection. Simulated results (makespans, metrics, traces, D2H bytes)
	// are identical either way.
	Pipeline bool

	// Admission bounds what guests may keep in flight (per-VP/device/farm
	// quotas and a token-bucket rate limit); excess requests are shed at the
	// service door with a typed, retryable overload error instead of
	// blocking an IPC worker. The zero value admits everything. Admission
	// applies to the IPC serving path (Handle); in-process backends bypass
	// it by design — they are the deterministic experiment harness.
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
		Pipeline: true,
	}
}

// Service is the ΣVP host-side runtime.
type Service struct {
	GPU  *hostgpu.GPU
	opts Options

	// Estimator is the Time/Power Estimation module; nil unless
	// Options.EstimateTarget is set.
	Estimator *Estimation

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

	// exec is the device's execution pipeline (inline with Options.Pipeline
	// off); execReg holds its wall-clock health counters, deliberately
	// separate from the simulated-work registry so pipelined and synchronous
	// runs snapshot byte-identically.
	exec    *executor
	execReg *metrics.Registry

	// adm is the admission gate (nil with Options.Admission zero); admReg
	// holds its wall-clock counters, separate from the simulated-work
	// registry for the same byte-identity reason as execReg.
	adm    *admission
	admReg *metrics.Registry

	// memMu guards vpAllocs, the per-VP allocation tables behind VP
	// checkpoint/restore and live migration: vpAllocs[vp] maps each guest
	// pointer the VP holds onto its current device pointer. The two are
	// identical at allocation time; they diverge only when a migration
	// restore cannot reclaim the original address and rebases the
	// allocation (see RestoreVP).
	memMu    sync.Mutex
	vpAllocs map[int]map[devmem.Ptr]devmem.Ptr
}

// vpState is one VP's shard of the VP-control state.
type vpState struct {
	mu      sync.Mutex
	blocked int // handlers parked in WaitJob; > 0 means stopped (Fig. 4b)
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

// NewService builds a service over a fresh simulated host GPU.
func NewService(opts Options) *Service {
	if opts.MemBytes <= 0 {
		opts.MemBytes = 1 << 30
	}
	g := hostgpu.New(opts.Arch, opts.MemBytes)
	g.Mode = opts.Mode
	g.InOrderIssue = true // the single hardware work queue of Fig. 3
	// The unoptimized service dispatches conservatively: one job at a time,
	// engines never overlapping (the 3N·T baseline). Kernel Interleaving
	// pipelines the engines.
	g.Serialize = opts.Policy == sched.PolicyFIFO
	g.ComputeSlots = opts.ComputeSlots
	g.Workers = opts.Workers
	if opts.Trace {
		g.Trace = trace.New()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	g.Metrics = reg
	q := sched.NewQueue()
	q.Metrics = reg
	if opts.FairShare > 0 {
		q.SetFairShare(opts.FairShare)
	}
	s := &Service{
		GPU:      g,
		opts:     opts,
		metrics:  reg,
		queue:    q,
		vps:      map[int]*vpState{},
		execReg:  metrics.New(),
		admReg:   metrics.New(),
		vpAllocs: map[int]map[devmem.Ptr]devmem.Ptr{},
	}
	// Farm caps are enforced by MultiService from sampled per-device loads,
	// so they too need the per-service gate running (with every device knob
	// zero it admits everything but still tracks reservations).
	if opts.Admission.deviceEnabled() || opts.Admission.farmEnabled() {
		s.adm = newAdmission(opts.Admission, s.admReg)
	}
	if opts.EstimateTarget != nil {
		s.Estimator = NewEstimation(*opts.EstimateTarget)
	}
	s.exec = newExecutor(s, s.execReg, opts.Pipeline)
	return s
}

// Options returns the service configuration.
func (s *Service) Options() Options { return s.opts }

// Metrics returns the service's registry (never nil): service counters, the
// structured job trace, and the counters of every subsystem the service owns
// (device model, queue, coalescer).
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
	// Drain the pipeline before stamping cancellation events: the simulated
	// clock must reflect every batch dispatched before the disconnect, as it
	// does on the synchronous path.
	s.Drain()
	for _, j := range s.queue.RemoveVP(id) {
		s.releaseJob(j)
		if !j.Done() {
			j.Finish(fmt.Errorf("core: vp %d: %w", id, ErrCancelled))
			s.metrics.Counter("core.jobs_cancelled").Inc()
			s.metrics.Gauge("core.jobs_in_flight").Sub(1)
			s.metrics.Event(metrics.Event{
				Kind: metrics.EventCancelled, VP: j.VP, Stream: j.Stream,
				Engine: j.Engine, Label: j.Label, Time: s.GPU.Sync(),
				Err: ErrCancelled.Error(),
			})
		}
	}
	s.maybeDispatch()
}

// Submit enqueues a job without waiting.
func (s *Service) Submit(j *sched.Job) {
	j.SubmitTime = s.GPU.Sync()
	s.metrics.Counter("core.jobs_submitted").Inc()
	s.metrics.Gauge("core.jobs_in_flight").Add(1)
	s.metrics.Event(metrics.Event{
		Kind: metrics.EventSubmitted, VP: j.VP, Stream: j.Stream,
		Engine: j.Engine, Label: j.Label, Time: j.SubmitTime,
	})
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
	// then resumes against the same post-batch device state in pipelined and
	// synchronous mode alike (its next SubmitTime reads the same clock), and
	// no submit ever overlaps a dispatch while every VP is registered.
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

// FlushAsync feeds everything pending into the execution pipeline regardless
// of VP states, without waiting for it to retire. MultiService uses it to
// start all devices before draining any, so a farm flush overlaps the
// devices' simulations in wall clock.
func (s *Service) FlushAsync() { s.feed(true) }

// Flush dispatches everything pending regardless of VP states and waits for
// it to retire.
func (s *Service) Flush() {
	s.FlushAsync()
	s.Drain()
}

// Drain blocks until every batch handed to the execution pipeline has fully
// retired. It is the barrier behind every read of device state; an inline
// executor never has a batch in flight, so it returns at once.
func (s *Service) Drain() { s.exec.drain() }

// Close drains the execution pipeline and stops its goroutine. The service
// stays usable: later batches run inline on the submitter, exactly as with
// Options.Pipeline off. Idempotent.
func (s *Service) Close() { s.exec.close() }

// ExecMetrics returns the executor-health registry (queue depth, batches,
// enqueue stalls). It is separate from Metrics() by design: executor load is
// a wall-clock property of the host, and folding it into the simulated-work
// registry would break the byte-identical pipelined-vs-synchronous snapshot
// guarantee. Empty (but never nil) with the pipeline off.
func (s *Service) ExecMetrics() *metrics.Registry { return s.execReg }

// AdmissionMetrics returns the admission registry (core.admission.*:
// admitted/shed/throttled counters, reserved jobs/bytes gauges, shed-latency
// histogram). Like ExecMetrics it is wall-clock state kept out of the
// simulated-work registry: a contended and an uncontended run of the same
// admitted workload must snapshot byte-identically. Empty (but never nil)
// with admission off.
func (s *Service) AdmissionMetrics() *metrics.Registry { return s.admReg }

// AdmissionLoad returns the admission gate's device-wide reservation totals
// (jobs, bytes); zero with admission off. Placement uses it to refuse
// devices over their admission limit, and MultiService sums it for the
// farm-wide caps.
func (s *Service) AdmissionLoad() (jobs int, bytes int64) {
	if s.adm == nil {
		return 0, 0
	}
	return s.adm.load()
}

// OverQuota reports whether the device is at or over its device-wide job or
// byte cap — the signal placement uses to route new VPs elsewhere.
func (s *Service) OverQuota() bool {
	if s.adm == nil {
		return false
	}
	o := s.opts.Admission
	jobs, bytes := s.adm.load()
	return (o.DeviceMaxQueuedJobs > 0 && jobs >= o.DeviceMaxQueuedJobs) ||
		(o.DeviceMaxQueuedBytes > 0 && bytes >= o.DeviceMaxQueuedBytes)
}

// admitJob passes one job through the admission gate. A nil return means the
// job was admitted and now holds a quota reservation (released by the
// dispatcher on completion or the disconnect path on cancellation). A
// non-nil return is the ipc.OverloadResp to send instead of queueing.
func (s *Service) admitJob(vp int, j *sched.Job) any {
	if s.adm == nil {
		return nil
	}
	if oe := s.adm.admit(vp, j.Bytes); oe != nil {
		return ipc.OverloadResp{Msg: oe.Error(), Backoff: oe.Backoff, Retryable: oe.Retryable}
	}
	j.Admitted = true
	return nil
}

// releaseJob returns an admitted job's quota reservation, exactly once.
func (s *Service) releaseJob(j *sched.Job) {
	if j.Admitted {
		j.Admitted = false
		s.adm.release(j.VP, j.Bytes)
	}
}

// Snapshot drains the pipeline and snapshots the simulated-work registry —
// the barrier form of Metrics().Snapshot().
func (s *Service) Snapshot() metrics.Snapshot {
	s.Drain()
	return s.metrics.Snapshot()
}

// runBatch hands one drained batch to the executor, which runs it on its
// goroutine or inline. Caller holds dispatchMu. Every job is bound to its
// batch's retirement signal first, so WaitJob wakes VPs at the same points in
// either executor state.
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
// experiments use. With the pipeline on the batch is enqueued and DispatchRaw
// returns without waiting; Sync/Drain is the completion barrier.
func (s *Service) DispatchRaw(batch []*sched.Job) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.runBatch(batch, nil)
}

// dispatch runs one batch through the Re-scheduler and the device. Served
// batches pass the service registry as rec and get each job's lifecycle
// recorded into it; raw batches (DispatchRaw) pass nil — plan and run only,
// the accounting loops are skipped rather than fed a no-op sink.
func (s *Service) dispatch(batch []*sched.Job, rec *metrics.Registry) {
	orig := batch // the submitted jobs, before coalescing swallows members
	if s.opts.Coalesce {
		batch = coalesce.Apply(s.GPU, batch)
	}
	order := sched.PlanRecorded(batch, s.opts.Policy, rec)
	if rec != nil {
		planTime := s.GPU.Sync()
		for _, j := range order {
			rec.Event(metrics.Event{
				Kind: metrics.EventScheduled, VP: j.VP, Stream: j.Stream,
				Engine: j.Engine, Label: j.Label, Time: planTime,
			})
		}
	}
	for _, j := range order {
		err := j.Run(s.GPU)
		if !j.Done() {
			j.Finish(err)
		}
		if rec != nil {
			rec.Event(metrics.Event{
				Kind: metrics.EventDispatched, VP: j.VP, Stream: j.Stream,
				Engine: j.Engine, Label: j.Label, Time: j.Interval.Start,
			})
		}
	}
	if s.Estimator != nil {
		for _, j := range orig {
			s.Estimator.observe(s, j)
		}
	}
	if rec == nil {
		return
	}
	// Completion accounting covers the *submitted* jobs: coalesced members
	// never appear in the planned order, but the merged job's run fills their
	// intervals and finishes them.
	lat := rec.Histogram("core.dispatch_latency_s", metrics.LatencyBuckets)
	for _, j := range orig {
		s.releaseJob(j)
		errMsg := ""
		if j.Err != nil {
			errMsg = j.Err.Error()
			rec.Counter("core.jobs_failed").Inc()
		}
		rec.Counter("core.jobs_completed").Inc()
		rec.Gauge("core.jobs_in_flight").Sub(1)
		rec.Event(metrics.Event{
			Kind: metrics.EventCompleted, VP: j.VP, Stream: j.Stream,
			Engine: j.Engine, Label: j.Label, Time: j.Interval.End,
			Start: j.Interval.Start, End: j.Interval.End, Err: errMsg,
		})
		if d := j.Interval.Start - j.SubmitTime; d >= 0 {
			lat.Observe(d)
		} else {
			// The job started on an idle engine before the global sim
			// frontier it was submitted at: zero queueing delay.
			lat.Observe(0)
		}
	}
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

// Trace returns the engine timeline, if enabled, draining the execution
// pipeline first so the log covers everything dispatched.
func (s *Service) Trace() *trace.Log {
	s.Drain()
	return s.GPU.Trace
}

// --- IPC endpoint ---

// Handle implements ipc.Handler for one device: it translates wire requests
// into jobs. Kernel launches arrive by registry name — the service owns the
// kernel binaries, giving guest applications binary compatibility across back
// ends. The farm-admin requests (CheckpointReq, MigrateReq) are not device
// work: MultiService.Handle answers them before routing here.
func (s *Service) Handle(vp int, req any) any {
	switch r := req.(type) {
	case ipc.MallocReq:
		p, err := s.AllocVP(vp, r.Size)
		if err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		return ipc.MallocResp{Ptr: p}
	case ipc.FreeReq:
		if err := s.FreeVP(vp, r.Ptr); err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		return ipc.OKResp{}
	case ipc.H2DReq:
		return s.serveJob(s.h2dJob(vp, r.Stream, r.Dst, r.Off, r.Data))
	case ipc.D2HReq:
		var d2h ipc.D2HResp
		j, err := s.d2hJob(vp, r.Stream, r.Src, r.Off, r.N, &d2h)
		resp := s.serveJob(j, err)
		if ok, done := resp.(ipc.OKResp); done {
			d2h.Data, d2h.End = j.Data, ok.End
			return d2h
		}
		return resp
	case ipc.MemsetReq:
		return s.serveJob(s.memsetJob(vp, r.Stream, r.Dst, r.Off, r.N, r.Value))
	case ipc.LaunchReq:
		l, err := launchOf(r)
		if err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		return s.serveJob(s.kernelJob(vp, r.Stream, l))
	case ipc.SyncReq:
		stream, err := streamOf(vp, r.Stream)
		if err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		s.Drain()
		return ipc.OKResp{End: s.GPU.SyncStream(stream)}
	default:
		return ipc.ErrResp{Msg: fmt.Sprintf("core: unknown request %T", req)}
	}
}

// serveJob is the served tail of a job builder: answer a request the builder
// refused, pass admission (or return its overload response), submit, park the
// VP until the job's batch retires, and reply with the completion time.
func (s *Service) serveJob(j *sched.Job, err error) any {
	if err != nil {
		return ipc.ErrResp{Msg: err.Error()}
	}
	if resp := s.admitJob(j.VP, j); resp != nil {
		return resp
	}
	s.Submit(j)
	if err := s.WaitJob(j.VP, j); err != nil {
		return ipc.ErrResp{Msg: err.Error()}
	}
	return ipc.OKResp{End: j.Interval.End}
}

// The job builders, one per request kind, are what Handle (then serveJob) and
// the in-process back end (then enqueue) share: the guest stream mapped into
// the VP's window, guest pointers a migration rebased translated. Offsets and
// lengths are checked when the job runs (devmem.InRange): until then the
// allocation may still be freed or replaced.

func (s *Service) h2dJob(vp, stream int, dst devmem.Ptr, off int, data []byte) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	return sched.NewH2D(vp, dev, s.ResolvePtr(vp, dst), off, data), nil
}

// d2hJob builds a D2H job. With frame non-nil (the served route) the bytes go
// from the device straight into a response frame of the transport's, left in
// *frame and sized only once [off, off+n) is known to lie inside the
// allocation; a request that fails that check gets a plain job and its error.
// Handle never recycles the frame itself: a cancelled job may still hold it.
func (s *Service) d2hJob(vp, stream int, src devmem.Ptr, off, n int, frame *ipc.D2HResp) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	src = s.ResolvePtr(vp, src)
	if frame != nil && s.opts.Mode != hostgpu.ExecTimingOnly {
		if size, err := s.GPU.Mem.Size(src); err == nil && devmem.InRange(off, n, size) {
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
	return sched.NewMemset(vp, dev, s.ResolvePtr(vp, dst), off, n, value), nil
}

// kernelJob builds a launch's job. Rebased pointers are bound through a copy
// of the launch, never by mutating the caller's, and the Kernel Match stage's
// coalescability comes from the registry entry of the kernel's name.
func (s *Service) kernelJob(vp, stream int, l *hostgpu.Launch) (*sched.Job, error) {
	dev, err := streamOf(vp, stream)
	if err != nil {
		return nil, err
	}
	if l == nil || l.Kernel == nil || l.Prog == nil {
		return nil, fmt.Errorf("core: vp %d: launch without kernel or program", vp)
	}
	if resolved, changed := s.resolveBindings(vp, l.Bindings); changed {
		moved := *l
		moved.Bindings = resolved
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
	if l.Params == nil {
		l.Params = map[string]kpl.Value{}
	}
	if l.Bindings == nil {
		l.Bindings = map[string]devmem.Ptr{}
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
// the namespace CheckpointVP captures and a migration transfers. Guest
// streams outside the window clamp to its base.
func VPStream(vp, guestStream int) int {
	s, err := streamOf(vp, guestStream)
	if err != nil {
		return vp * streamsPerVP
	}
	return s
}
