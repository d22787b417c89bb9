package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// execQueueDepth is the bound of each device executor's batch queue. One
// entry would already overlap guest submission with device simulation; a few
// entries absorb submitter jitter (a burst of small batches) without letting
// a fast guest run unboundedly ahead of the simulated clock — memory stays
// bounded and backpressure reaches the submitter within a handful of batches.
// Enqueueing past the bound blocks and counts an enqueue stall.
const execQueueDepth = 4

// execBatch is one unit of work handed to a Service's execution pipeline.
type execBatch struct {
	jobs []*sched.Job
	// rec receives the batch's lifecycle accounting: the service registry for
	// served batches, nil for the experiments' externally-assembled ones
	// (plan + run only).
	rec *metrics.Registry
	// done is closed once the batch has fully retired: every job ran and all
	// dispatch accounting landed in the registry.
	done chan struct{}
}

// executor is a Service's execution pipeline: a bounded FIFO of drained
// batches and a running token. Whoever holds the token runs the batch at the
// head of the queue through Service.dispatch (runHead), so batches run one at
// a time, in queue order. Two kinds of goroutine take the token. A runner is
// started by submit when it queues a batch and finds no runner and nobody in
// drain; it runs head batches while the token is free and no goroutine is
// waiting in drain, then exits. A goroutine in drain that finds the token
// free takes the head batch and runs it itself instead of sleeping — a
// lock-step caller that submits and then drains pays no hand-off, while
// batches submitted without a drain run on the runner behind the submitter's
// back. The executor has no other state: it starts nothing when built, holds
// no goroutine while it has no work, and so has nothing to stop.
//
// Invariant: while a batch is queued, a runner exists, or a drainer is
// waiting, or a drainer holds the token. A runner leaves only when the queue
// is empty or a drainer is there, and a drainer leaves only once nothing is
// in flight; submit starts a runner in every other case.
//
// The runner is what lets guest submission overlap device simulation, and
// what lets an N-device MultiService simulate N devices concurrently in wall
// clock — each device's simulated clock, metrics registry, and trace log are
// touched only by its token holder, so no cross-device synchronization is
// needed until a merge point (Sync/Snapshot/Traces) drains the pipelines,
// and a drain that helps one device leaves the others to their runners.
//
// Health counters (queue depth, batches, enqueue stalls, batches run by a
// drainer) are the core.exec.* host family of the service registry: executor
// load is a wall-clock property of the host, and leaving the family out of
// Service.Snapshot is what keeps a snapshot independent of who ran each
// batch.
type executor struct {
	s *Service

	mu sync.Mutex
	// cond wakes submitters and drainers: a queue slot opened or a batch
	// retired.
	cond      *sync.Cond
	queue     [execQueueDepth]execBatch // FIFO ring of batches not yet taken
	head, n   int
	running   bool // the token: a goroutine is running a batch
	runner    bool // a runner goroutine exists
	helpers   int  // goroutines in drain; a runner leaves the queue to them
	inflight  int  // batches accepted (or pending enqueue) but not yet retired
	highWater int  // max inflight ever seen
	// Per-batch instruments, resolved under mu by the first submit.
	depth, depthHW     *metrics.Gauge
	batches, byDrainer *metrics.Counter
}

// setDepth publishes the pipeline depth gauges. Caller holds e.mu: the gauge
// has exactly one owner (whichever goroutine holds the mutex), so concurrent
// enqueue/retire can never publish a stale depth over a fresher one —
// metrics.Gauge.Set is only safe with a single writer.
func (e *executor) setDepth() {
	if e.depth == nil {
		m := e.s.metrics
		e.depth, e.depthHW = m.Gauge("core.exec.queue_depth"), m.Gauge("core.exec.queue_depth_hw")
		e.batches, e.byDrainer = m.Counter("core.exec.batches"), m.Counter("core.exec.batches_by_drainer")
	}
	e.depth.Set(int64(e.inflight))
	if e.inflight > e.highWater {
		e.highWater = e.inflight
		e.depthHW.Set(int64(e.highWater))
	}
}

// newExecutor builds a service's execution pipeline. It starts nothing.
func newExecutor(s *Service) *executor {
	e := &executor{s: s}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// run is a runner: it runs queued batches while it can take the token and no
// drainer is there to, then clears its flag and exits.
func (e *executor) run() {
	e.mu.Lock()
	for !e.running && e.n > 0 && e.helpers == 0 {
		e.runHead(false)
	}
	e.runner = false
	e.mu.Unlock()
}

// runHead takes the token and the batch at the head of the queue, runs it
// with e.mu released, and retires it. Caller holds e.mu, the token is free
// and the queue is not empty.
func (e *executor) runHead(byDrainer bool) {
	b := e.queue[e.head]
	e.queue[e.head] = execBatch{}
	e.head, e.n = (e.head+1)%execQueueDepth, e.n-1
	e.running = true
	if byDrainer {
		e.byDrainer.Inc()
	}
	e.cond.Broadcast() // a queue slot opened
	e.mu.Unlock()
	e.s.dispatch(b.jobs, b.rec)
	e.mu.Lock()
	e.running = false
	e.inflight--
	e.setDepth()
	e.cond.Broadcast()
	e.mu.Unlock()
	close(b.done) // outside e.mu: the VPs it wakes submit again
	e.mu.Lock()
}

// submit queues a batch for the token holder, blocking for backpressure
// while the bounded queue is full, and starts a runner unless one exists or
// a drainer is there to run the batch. Callers serialize through
// Service.dispatchMu, which preserves the drain-order = execution-order
// invariant.
func (e *executor) submit(b execBatch) {
	e.mu.Lock()
	// Count the batch before waiting for a slot: a drain must not slip past a
	// batch that is accepted but still waiting for one. The depth gauge counts
	// in-pipeline batches (accepted but not retired) and is only ever written
	// under e.mu.
	e.inflight++
	e.setDepth()
	e.batches.Inc()
	if e.n == execQueueDepth {
		e.s.metrics.Counter("core.exec.enqueue_stalls").Inc()
		start := time.Now()
		for e.n == execQueueDepth {
			e.cond.Wait()
		}
		e.s.metrics.Counter("core.exec.stall_wait_ns").Add(time.Since(start).Nanoseconds())
	}
	e.queue[(e.head+e.n)%execQueueDepth] = b
	e.n++
	start := !e.runner && !e.running && e.helpers == 0
	if start {
		e.runner = true
	}
	e.mu.Unlock()
	if start {
		go e.run()
	}
}

// drain blocks until every batch enqueued so far has fully retired — the
// barrier behind Sync, Flush, Snapshot, Trace merges, and VP disconnects —
// running queued batches itself whenever the token is free.
func (e *executor) drain() {
	e.mu.Lock()
	e.helpers++
	for e.inflight > 0 {
		if !e.running && e.n > 0 {
			e.runHead(true)
			continue
		}
		e.cond.Wait()
	}
	e.helpers--
	e.mu.Unlock()
}
