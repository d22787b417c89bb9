package sched

import (
	"errors"
	"fmt"
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
	done chan struct{}

	// retired, when non-nil, is closed once the executor batch containing
	// the job has fully retired — the batch's every job has run AND all of
	// its dispatch accounting (events, latency histograms) is recorded. Set
	// by the pipelined executor before handoff; nil for jobs dispatched
	// synchronously or cancelled while still queued.
	retired <-chan struct{}
}

// BindBatch attaches the retire signal of the executor batch that will run
// this job. It must be called before the batch is handed to the executor
// goroutine (the channel handoff is what publishes the write).
func (j *Job) BindBatch(done <-chan struct{}) { j.retired = done }

// AwaitRetired blocks until the job's batch has fully retired. Call it only
// after Wait has returned: a finished job either went through an executor
// (retired set before its Finish) or never will (cancelled in the queue), so
// the read is race-free. No-op on the synchronous dispatch path.
func (j *Job) AwaitRetired() {
	if j.retired != nil {
		<-j.retired
	}
}

func newJob(vp, stream int, engine, label string) *Job {
	return &Job{VP: vp, Stream: stream, Engine: engine, Label: label, done: make(chan struct{})}
}

// NewH2D builds a host-to-device copy job.
func NewH2D(vp, stream int, dst devmem.Ptr, off int, data []byte) *Job {
	j := newJob(vp, stream, hostgpu.EngineH2D, fmt.Sprintf("vp%d H2D %dB", vp, len(data)))
	j.Bytes = len(data)
	j.Run = func(g *hostgpu.GPU) error {
		iv, err := g.CopyH2D(stream, dst, off, data)
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
	j := newJob(vp, stream, hostgpu.EngineD2H, fmt.Sprintf("vp%d D2H %dB", vp, n))
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
	j := newJob(vp, stream, hostgpu.EngineCompute, fmt.Sprintf("vp%d memset %dB", vp, n))
	j.Run = func(g *hostgpu.GPU) error {
		iv, err := g.Memset(stream, dst, off, n, value)
		j.Interval = iv
		return err
	}
	return j
}

// NewKernel builds a kernel-launch job.
func NewKernel(vp, stream int, l *hostgpu.Launch) *Job {
	j := newJob(vp, stream, hostgpu.EngineCompute, fmt.Sprintf("vp%d %s", vp, l.Kernel.Name))
	j.Launch = l
	j.Run = func(g *hostgpu.GPU) error {
		p, iv, err := g.Launch(stream, l)
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
	weights   map[int]int

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
// drained batch (multiplied by the VP's weight; see SetWeight). Jobs beyond a
// VP's share stay queued, in arrival order, for the next batch — so a hot VP
// flooding the queue cannot monopolise a dispatch round. limit <= 0 restores
// the default drain-everything behaviour. Call before serving traffic: the
// share is read under the queue lock but changing it mid-stream changes batch
// composition.
func (q *Queue) SetFairShare(limit int) {
	q.mu.Lock()
	q.fairShare = limit
	q.mu.Unlock()
}

// SetWeight scales one VP's fair share: a VP with weight w may contribute up
// to w*fairShare jobs per drained batch. Weights below 1 are clamped to 1;
// unset VPs default to weight 1.
func (q *Queue) SetWeight(vp, weight int) {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	if q.weights == nil {
		q.weights = make(map[int]int)
	}
	q.weights[vp] = weight
	q.mu.Unlock()
}

// DrainBatch removes and returns pending jobs in arrival order. With a fair
// share configured (SetFairShare), each VP contributes at most its weighted
// share to the batch and the overflow stays queued; otherwise the whole queue
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
			share := q.fairShare
			if w, ok := q.weights[j.VP]; ok {
				share *= w
			}
			if taken[j.VP] < share {
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

// chainKey identifies one (VP, stream) arrival chain within a batch.
type chainKey struct{ vp, stream int }

// planChain is one (VP, stream) chain of the batch being planned: its jobs in
// arrival order plus the planner's head cursor.
type planChain struct {
	jobs []*Job
	head int
}

// planScratch is the Re-scheduler's per-batch scratch state. A plan runs on
// every dispatched batch — the hot path of the whole service — so the maps
// and chain slices are pooled and reused across batches (cleared, capacity
// retained) instead of reallocated. Pinned by BenchmarkPlanAllocs and
// TestPlanAllocs.
type planScratch struct {
	planned  map[*Job]bool
	inBatch  map[*Job]bool
	prev     map[*Job]*Job // previous job in the (VP, stream) chain
	lastOf   map[chainKey]*Job
	chainIdx map[chainKey]int
	arrival  map[*Job]int
	chains   []planChain
	nchains  int
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// getScratch fetches a scratch sized for an n-job batch.
func getScratch(n int) *planScratch {
	ps := planPool.Get().(*planScratch)
	if ps.planned == nil {
		ps.planned = make(map[*Job]bool, n)
		ps.inBatch = make(map[*Job]bool, n)
		ps.prev = make(map[*Job]*Job, n)
		ps.lastOf = make(map[chainKey]*Job, n)
		ps.chainIdx = make(map[chainKey]int, n)
		ps.arrival = make(map[*Job]int, n)
	}
	return ps
}

// release clears the scratch (keeping map buckets and slice capacity) and
// returns it to the pool.
func (ps *planScratch) release() {
	clear(ps.planned)
	clear(ps.inBatch)
	clear(ps.prev)
	clear(ps.lastOf)
	clear(ps.chainIdx)
	clear(ps.arrival)
	for i := 0; i < ps.nchains; i++ {
		ps.chains[i].jobs = ps.chains[i].jobs[:0]
		ps.chains[i].head = 0
	}
	ps.nchains = 0
	planPool.Put(ps)
}

// chain returns the chain for a key, creating it in insertion order on first
// sight (the order planInterleave round-robins over).
func (ps *planScratch) chain(k chainKey) *planChain {
	if i, ok := ps.chainIdx[k]; ok {
		return &ps.chains[i]
	}
	if ps.nchains == len(ps.chains) {
		ps.chains = append(ps.chains, planChain{})
	}
	ps.chainIdx[k] = ps.nchains
	ps.nchains++
	return &ps.chains[ps.nchains-1]
}

// Plan computes the dispatch order of a batch under the given policy. The
// order always respects (a) each (VP, stream) chain's arrival order and
// (b) explicit Deps. Under PolicyInterleave, the planner greedily prefers a
// ready job whose engine differs from the previously planned one, visiting
// VPs round-robin, which interleaves copy and kernel jobs from different
// VPs (Fig. 4a). A batch whose Deps form a cycle cannot honour (b); the
// affected jobs are still emitted (exactly once) but marked with ErrCycle.
func Plan(batch []*Job, policy Policy) []*Job {
	if len(batch) <= 1 {
		return batch
	}
	ps := getScratch(len(batch))
	defer ps.release()
	if policy == PolicyFIFO {
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
	ps := getScratch(len(batch))
	defer ps.release()
	for i, j := range batch {
		ps.arrival[j] = i
	}
	h := m.Histogram("sched.reorder_distance", metrics.CountBuckets)
	for i, j := range order {
		ai, ok := ps.arrival[j]
		if !ok {
			continue // job injected after arrival (merged coalesce jobs)
		}
		d := i - ai
		if d < 0 {
			d = -d
		}
		h.Observe(float64(d))
	}
	return order
}

// planFIFO keeps arrival order except for the minimal moves needed to honour
// explicit dependencies (a coalesced job sits at its last member's slot, so
// earlier members' successors must slide after it): a stable topological
// order.
func planFIFO(batch []*Job, ps *planScratch) []*Job {
	for _, j := range batch {
		ps.inBatch[j] = true
		k := chainKey{j.VP, j.Stream}
		ps.prev[j] = ps.lastOf[k]
		ps.lastOf[k] = j
	}
	out := make([]*Job, 0, len(batch))
	for len(out) < len(batch) {
		progressed := false
		for _, j := range batch {
			if ps.planned[j] {
				continue
			}
			ok := true
			if p := ps.prev[j]; p != nil && !ps.planned[p] {
				ok = false
			}
			for _, d := range j.Deps {
				if ps.inBatch[d] && !ps.planned[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ps.planned[j] = true
			out = append(out, j)
			progressed = true
		}
		if !progressed {
			// Malformed cycle: emit the remainder in arrival order, marking
			// every job whose explicit deps are violated by the forced order.
			for _, j := range batch {
				if ps.planned[j] {
					continue
				}
				for _, d := range j.Deps {
					if ps.inBatch[d] && !ps.planned[d] {
						markCycle(j)
						break
					}
				}
				ps.planned[j] = true
				out = append(out, j)
			}
		}
	}
	return out
}

func planInterleave(batch []*Job, ps *planScratch) []*Job {
	for _, j := range batch {
		c := ps.chain(chainKey{j.VP, j.Stream})
		c.jobs = append(c.jobs, j)
		ps.inBatch[j] = true
	}
	chains := ps.chains[:ps.nchains]

	out := make([]*Job, 0, len(batch))
	lastEngine := ""
	rr := 0

	ready := func(j *Job) bool {
		for _, d := range j.Deps {
			if ps.inBatch[d] && !ps.planned[d] {
				return false
			}
		}
		return true
	}

	for len(out) < len(batch) {
		// Gather the ready head of each chain.
		var pick *Job
		pickIdx := -1
		// First pass: prefer a different engine, round-robin from rr.
		for pass := 0; pass < 2 && pick == nil; pass++ {
			for i := 0; i < len(chains); i++ {
				ci := (rr + i) % len(chains)
				c := &chains[ci]
				if c.head >= len(c.jobs) {
					continue
				}
				j := c.jobs[c.head]
				if !ready(j) {
					continue
				}
				if pass == 0 && lastEngine != "" && j.Engine == lastEngine {
					continue
				}
				pick = j
				pickIdx = ci
				break
			}
		}
		if pick == nil {
			// Every ready head shares lastEngine and the two passes above
			// missed it, or a (malformed) dependency cycle blocks all heads:
			// take the first head outright to guarantee progress. Only chain
			// heads are eligible — per-chain order is inviolable. A forced
			// head with unplanned deps is a cycle victim: mark it so the
			// violation is signalled, not silent.
			for i := range chains {
				if c := &chains[i]; c.head < len(c.jobs) {
					pick = c.jobs[c.head]
					pickIdx = i
					if !ready(pick) {
						markCycle(pick)
					}
					break
				}
			}
		}
		chains[pickIdx].head++
		rr = (pickIdx + 1) % len(chains)
		ps.planned[pick] = true
		lastEngine = pick.Engine
		out = append(out, pick)
	}
	return out
}
