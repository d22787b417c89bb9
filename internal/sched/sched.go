package sched

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/metrics"
	"repro/internal/profile"
)

// Policy selects the Re-scheduler's ordering strategy.
type Policy uint8

// Policies.
const (
	// PolicyFIFO dispatches jobs in arrival order — the unoptimized
	// baseline whose head-of-line blocking Fig. 3a illustrates.
	PolicyFIFO Policy = iota
	// PolicyInterleave reorders jobs (within dependency constraints) to
	// alternate engines — Kernel Interleaving.
	PolicyInterleave
)

func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyInterleave:
		return "interleave"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Job is one GPU operation requested by a VP.
type Job struct {
	VP     int
	Stream int
	Engine string // hostgpu.EngineCopy or EngineCompute
	Label  string

	// Deps are explicit extra dependencies (beyond the per-VP/stream
	// arrival order), used by coalesced jobs.
	Deps []*Job

	// Launch is retained for kernel jobs so the Re-scheduler's Kernel Match
	// stage can inspect them; Coalescable marks kernels whose memory
	// management permits merging.
	Launch      *hostgpu.Launch
	Coalescable bool

	// Priced is a kernel job's pricing (hostgpu.GPU.Price): set by the
	// coalescer's win predictor when it is a function of the launch's key,
	// otherwise by the job's run, which uses it when set. A merged job
	// carries the pricing its members' entries sum to. Read-only: it is the
	// device's shared cache entry.
	Priced *hostgpu.Priced

	// Run executes the operation against the device and fills the result
	// fields.
	Run func(g *hostgpu.GPU) error

	// Results.
	Data     []byte
	Interval hostgpu.Interval
	Profile  *profile.Profile
	Err      error

	// SubmitTime is the simulated time at which the job entered the service
	// queue; the dispatcher's latency accounting subtracts it from the job's
	// execution start.
	SubmitTime float64

	// Bytes is the host-side payload the job pins while queued or in flight
	// (an H2D's staged source buffer, a D2H's result buffer). Admission
	// control charges it against per-VP byte quotas; zero for jobs that carry
	// no host payload (launches, memsets, fills).
	Bytes int

	// Admitted marks a job that passed admission control and holds a quota
	// reservation; the dispatcher (or disconnect cleanup) releases the
	// reservation exactly once when the job leaves the system.
	Admitted bool

	seq  int
	pos  int // batch position while a plan runs (planScratch)
	done chan struct{}

	// retired, when non-nil, is closed once the executor batch containing
	// the job has fully retired — the batch's every job has run AND all of
	// its dispatch accounting (events, latency histograms) is recorded. Set
	// before the batch is handed to the executor; nil for jobs run outside
	// one or cancelled while still queued.
	retired <-chan struct{}
}

// BindBatch attaches the retire signal of the executor batch that will run
// this job. It must be called before the batch is handed to the executor
// (the executor's mutex, which whoever runs the batch takes it under, is what
// publishes the write).
func (j *Job) BindBatch(done <-chan struct{}) { j.retired = done }

// AwaitRetired blocks until the job's batch has fully retired. Call it only
// after Wait has returned: a finished job either went through an executor
// (retired set before its Finish) or never will (cancelled in the queue), so
// the read is race-free. No-op for a job no executor ran.
func (j *Job) AwaitRetired() {
	if j.retired != nil {
		<-j.retired
	}
}

func newJob(vp, stream int, engine, label string) *Job {
	return &Job{VP: vp, Stream: stream, Engine: engine, Label: label, done: make(chan struct{})}
}

// NewH2D builds a host-to-device copy job; data is copied, never kept.
func NewH2D(vp, stream int, dst devmem.Ptr, off int, data []byte) *Job {
	return newH2D(vp, stream, dst, off, data, nil)
}

// NewH2DFrom builds a host-to-device copy job from pl, lent until the job has
// run or been cancelled, which the allocation may adopt (hostgpu.GPU.AdoptH2D).
func NewH2DFrom(vp, stream int, dst devmem.Ptr, off int, pl *devmem.Payload) *Job {
	return newH2D(vp, stream, dst, off, pl.B, pl)
}

func newH2D(vp, stream int, dst devmem.Ptr, off int, data []byte, pl *devmem.Payload) *Job {
	j := newJob(vp, stream, hostgpu.EngineH2D, "vp"+strconv.Itoa(vp)+" H2D "+strconv.Itoa(len(data))+"B")
	j.Bytes = len(data)
	j.Run = func(g *hostgpu.GPU) error {
		var iv hostgpu.Interval
		var err error
		if pl != nil {
			iv, err = g.AdoptH2D(stream, dst, off, pl)
		} else {
			iv, err = g.CopyH2D(stream, dst, off, data)
		}
		j.Interval = iv
		return err
	}
	return j
}

// NewD2H builds a device-to-host copy job; the bytes land in Job.Data, a
// slice made when the job runs.
func NewD2H(vp, stream int, src devmem.Ptr, off, n int) *Job {
	return newD2H(vp, stream, src, off, n, nil)
}

// NewD2HInto builds a device-to-host copy job of len(dst) bytes that reads
// into dst, the caller's buffer (the transport's response frame), instead of
// a fresh slice; Job.Data is dst once the job has run. The caller must keep
// dst untouched until then — a job cancelled in the queue never writes it,
// but one already handed to the executor may.
func NewD2HInto(vp, stream int, src devmem.Ptr, off int, dst []byte) *Job {
	return newD2H(vp, stream, src, off, len(dst), dst)
}

func newD2H(vp, stream int, src devmem.Ptr, off, n int, dst []byte) *Job {
	j := newJob(vp, stream, hostgpu.EngineD2H, "vp"+strconv.Itoa(vp)+" D2H "+strconv.Itoa(n)+"B")
	j.Bytes = n
	j.Run = func(g *hostgpu.GPU) error {
		data, iv, err := g.CopyD2H(stream, src, off, n, dst)
		j.Data = data
		j.Interval = iv
		return err
	}
	return j
}

// NewMemset builds a device-memory fill job (cudaMemset); fills run on the
// compute engine's fill path.
func NewMemset(vp, stream int, dst devmem.Ptr, off, n int, value byte) *Job {
	j := newJob(vp, stream, hostgpu.EngineCompute, "vp"+strconv.Itoa(vp)+" memset "+strconv.Itoa(n)+"B")
	j.Run = func(g *hostgpu.GPU) error {
		iv, err := g.Memset(stream, dst, off, n, value)
		j.Interval = iv
		return err
	}
	return j
}

// NewKernel builds a kernel-launch job.
func NewKernel(vp, stream int, l *hostgpu.Launch) *Job {
	j := newJob(vp, stream, hostgpu.EngineCompute, "vp"+strconv.Itoa(vp)+" "+l.Kernel.Name)
	j.Launch = l
	j.Run = func(g *hostgpu.GPU) error {
		p, iv, err := g.LaunchPriced(stream, l, &j.Priced)
		j.Profile = p
		j.Interval = iv
		return err
	}
	return j
}

// NewCustom builds a job with caller-supplied execution (coalesced jobs).
func NewCustom(vp, stream int, engine, label string, run func(j *Job, g *hostgpu.GPU) error) *Job {
	j := newJob(vp, stream, engine, label)
	j.Run = func(g *hostgpu.GPU) error { return run(j, g) }
	return j
}

// Finish marks the job complete with the given error.
func (j *Job) Finish(err error) {
	if err != nil && j.Err == nil {
		j.Err = err
	}
	close(j.done)
}

// Wait blocks until the job finishes and returns its error.
func (j *Job) Wait() error {
	<-j.done
	return j.Err
}

// Done reports whether the job has finished without blocking.
func (j *Job) Done() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Queue accumulates jobs in arrival order. It is safe for concurrent use.
type Queue struct {
	mu        sync.Mutex
	pending   []*Job
	nextSeq   int
	fairShare int

	// Metrics optionally tracks queue depth and push counts; nil is a no-op.
	Metrics *metrics.Registry
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Push appends a job.
func (q *Queue) Push(j *Job) {
	q.mu.Lock()
	j.seq = q.nextSeq
	q.nextSeq++
	q.pending = append(q.pending, j)
	q.mu.Unlock()
	q.Metrics.Counter("sched.jobs_pushed").Inc()
	q.Metrics.Gauge("sched.queue_depth").Add(1)
}

// SetFairShare bounds how many jobs any single VP may contribute to one
// drained batch. Jobs beyond a VP's share stay queued, in arrival order, for the next batch — so a hot VP
// flooding the queue cannot monopolise a dispatch round. limit <= 0 restores
// the default drain-everything behaviour. Call before serving traffic: the
// share is read under the queue lock but changing it mid-stream changes batch
// composition.
func (q *Queue) SetFairShare(limit int) {
	q.mu.Lock()
	q.fairShare = limit
	q.mu.Unlock()
}

// DrainBatch removes and returns pending jobs in arrival order. With a fair
// share configured (SetFairShare), each VP contributes at most its share to the batch and the overflow stays queued; otherwise the whole queue
// drains. The result is never empty while jobs are pending: the first pending
// job always fits its VP's share (share >= 1), so callers looping
// "drain-until-empty" terminate.
func (q *Queue) DrainBatch() []*Job {
	q.mu.Lock()
	var out []*Job
	if q.fairShare <= 0 {
		out = q.pending
		q.pending = nil
	} else {
		taken := make(map[int]int, 8)
		kept := q.pending[:0]
		for _, j := range q.pending {
			if taken[j.VP] < q.fairShare {
				taken[j.VP]++
				out = append(out, j)
			} else {
				kept = append(kept, j)
			}
		}
		// Zero the freed tail so deferred *Job values don't pin their
		// payloads past their actual dequeue.
		for i := len(kept); i < len(q.pending); i++ {
			q.pending[i] = nil
		}
		q.pending = kept
	}
	q.mu.Unlock()
	if len(out) > 0 {
		q.Metrics.Gauge("sched.queue_depth").Sub(int64(len(out)))
		q.Metrics.Counter("sched.batches_drained").Inc()
		q.Metrics.Histogram("sched.batch_size", metrics.CountBuckets).Observe(float64(len(out)))
	}
	return out
}

// Len returns the number of pending jobs.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// RemoveVP removes and returns every pending job submitted by one VP
// (disconnect cleanup); the remaining jobs keep their arrival order.
func (q *Queue) RemoveVP(vp int) []*Job {
	q.mu.Lock()
	var removed []*Job
	kept := q.pending[:0]
	for _, j := range q.pending {
		if j.VP == vp {
			removed = append(removed, j)
		} else {
			kept = append(kept, j)
		}
	}
	q.pending = kept
	q.mu.Unlock()
	if len(removed) > 0 {
		q.Metrics.Gauge("sched.queue_depth").Sub(int64(len(removed)))
	}
	return removed
}

// ErrCycle marks a job that a planner was forced to dispatch before one of
// its explicit Deps because the dependency graph contains a (malformed)
// cycle. The job still runs, but its Err carries the signal so the VP's
// synchronous wait surfaces it instead of silently returning success.
var ErrCycle = errors.New("sched: dependency cycle")

// markCycle records the forced-dispatch signal on a job.
func markCycle(j *Job) {
	if j.Err == nil {
		j.Err = fmt.Errorf("%w: %q dispatched with unplanned dependencies", ErrCycle, j.Label)
	}
}

// planScratch is the Re-scheduler's per-batch state, indexed by batch
// position. A plan runs on every dispatched batch — the hot path of the whole
// service — so the slices are pooled and reused across batches (capacity
// retained) instead of reallocated, and nothing is hashed: each job carries
// its position (Job.pos) for the length of the plan, so "is this dependency
// in the batch, and planned?" is an index and a pointer compare. Pinned by
// BenchmarkPlanAllocs and TestPlanAllocs.
type planScratch struct {
	planned []bool
	next    []int // next position in the job's (VP, stream) chain, -1 at its end
	chainOf []int // index into heads
	heads   []int // each chain's unplanned head, -1 once planned; first-seen order
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// getScratch positions the batch's jobs and threads them into their chains,
// in first-seen order (the order planInterleave round-robins over).
func getScratch(batch []*Job) *planScratch {
	n := len(batch)
	ps := planPool.Get().(*planScratch)
	ps.planned = append(ps.planned[:0], make([]bool, n)...)
	ps.next = append(ps.next[:0], make([]int, n)...)
	ps.chainOf = append(ps.chainOf[:0], make([]int, n)...)
	ps.heads = ps.heads[:0]
	for i, j := range batch {
		j.pos, ps.next[i] = i, -1
		// The chain's previous job sits a few chains back: scanning for it
		// beats hashing the (VP, stream) key.
		p := i - 1
		for p >= 0 && (batch[p].VP != j.VP || batch[p].Stream != j.Stream) {
			p--
		}
		if p < 0 {
			ps.chainOf[i] = len(ps.heads)
			ps.heads = append(ps.heads, i)
		} else {
			ps.chainOf[i], ps.next[p] = ps.chainOf[p], i
		}
	}
	return ps
}

// ready reports whether every explicit dependency of j that is a job of the
// batch has been planned. A dependency outside the batch may carry a position
// from an earlier plan; only the job at that position of this batch counts.
func (ps *planScratch) ready(j *Job, batch []*Job) bool {
	for _, d := range j.Deps {
		if p := d.pos; p < len(batch) && batch[p] == d && !ps.planned[p] {
			return false
		}
	}
	return true
}

// take appends the job at position i, the head of its chain, to out.
func (ps *planScratch) take(out, batch []*Job, i int) []*Job {
	ps.planned[i] = true
	ps.heads[ps.chainOf[i]] = ps.next[i]
	return append(out, batch[i])
}

// Plan computes the dispatch order of a batch under the given policy. The
// order always respects (a) each (VP, stream) chain's arrival order and
// (b) explicit Deps. Under PolicyInterleave, the planner greedily prefers a
// ready job whose engine differs from the previously planned one, visiting
// VPs round-robin, which interleaves copy and kernel jobs from different
// VPs (Fig. 4a). A batch whose Deps form a cycle cannot honour (b); the
// affected jobs are still emitted (exactly once) but marked with ErrCycle.
// Plan records each job's batch position on it: a job is planned by one
// goroutine at a time, as it belongs to one batch.
func Plan(batch []*Job, policy Policy) []*Job {
	ps := getScratch(batch) // positions every job: PlanRecorded reads them
	defer planPool.Put(ps)
	switch {
	case len(batch) <= 1:
		return batch
	case policy == PolicyFIFO:
		return planFIFO(batch, ps)
	}
	return planInterleave(batch, ps)
}

// PlanRecorded is Plan plus Re-scheduler observability: it records, into m,
// the batch count and each job's reorder distance — how far the planner moved
// the job from its arrival position, the per-batch footprint of Kernel
// Interleaving. A nil registry degenerates to Plan.
func PlanRecorded(batch []*Job, policy Policy, m *metrics.Registry) []*Job {
	order := Plan(batch, policy)
	if m == nil || len(batch) == 0 {
		return order
	}
	m.Counter("sched.batches_planned").Inc()
	h := m.Histogram("sched.reorder_distance", metrics.CountBuckets)
	for i, j := range order {
		h.Observe(float64(max(i-j.pos, j.pos-i))) // j.pos: the arrival position
	}
	return order
}

// planFIFO keeps arrival order except for the minimal moves needed to honour
// explicit dependencies (a coalesced job sits at its last member's slot, so
// earlier members' successors must slide after it): a stable topological
// order.
func planFIFO(batch []*Job, ps *planScratch) []*Job {
	out := make([]*Job, 0, len(batch))
	for len(out) < len(batch) {
		progressed := false
		for i, j := range batch {
			if ps.planned[i] || ps.heads[ps.chainOf[i]] != i || !ps.ready(j, batch) {
				continue
			}
			out = ps.take(out, batch, i)
			progressed = true
		}
		if !progressed {
			// Malformed cycle: emit the remainder in arrival order, marking
			// every job whose explicit deps are violated by the forced order.
			for i, j := range batch {
				if ps.planned[i] {
					continue
				}
				if !ps.ready(j, batch) {
					markCycle(j)
				}
				out = ps.take(out, batch, i)
			}
		}
	}
	return out
}

func planInterleave(batch []*Job, ps *planScratch) []*Job {
	heads := ps.heads
	out := make([]*Job, 0, len(batch))
	lastEngine := ""
	rr := 0
	for len(out) < len(batch) {
		// Take the ready head of a chain, round-robin from rr. First pass:
		// prefer a different engine.
		pick := -1
		for pass := 0; pass < 2 && pick < 0; pass++ {
			for i := range heads {
				c := (rr + i) % len(heads)
				h := heads[c]
				if h < 0 || !ps.ready(batch[h], batch) ||
					(pass == 0 && lastEngine != "" && batch[h].Engine == lastEngine) {
					continue
				}
				pick = c
				break
			}
		}
		if pick < 0 {
			// A (malformed) dependency cycle blocks every head: take the
			// first head outright to guarantee progress. Only chain heads are
			// eligible — per-chain order is inviolable. A forced head with
			// unplanned deps is a cycle victim: mark it so the violation is
			// signalled, not silent.
			for c, h := range heads {
				if h >= 0 {
					pick = c
					if !ps.ready(batch[h], batch) {
						markCycle(batch[h])
					}
					break
				}
			}
		}
		h := heads[pick]
		out = ps.take(out, batch, h)
		rr = (pick + 1) % len(heads)
		lastEngine = batch[h].Engine
	}
	return out
}
