package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// ExecQueueDepth is the bound of each device executor's batch queue. One
// entry would already overlap guest submission with device simulation; a few
// entries absorb submitter jitter (a burst of small batches) without letting
// a fast guest run unboundedly ahead of the simulated clock — memory stays
// bounded and backpressure reaches the submitter within a handful of batches.
// Enqueueing past the bound blocks and counts an enqueue stall.
const ExecQueueDepth = 4

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

// executor is a Service's execution pipeline. Pipelined, it is a bounded FIFO
// of drained batches, a running token, and one goroutine: whoever holds the
// token runs the batch at the head of the queue through Service.dispatch.
// The goroutine, woken by submit, runs batches while it can take the token
// and no goroutine is waiting in drain; a goroutine in drain that finds the
// token free takes the head batch and runs it itself instead of sleeping — a
// lock-step caller that submits and then drains pays no hand-off, while
// batches submitted without a drain still run behind the submitter's back.
// Either way batches run one at a time, in queue order. Inline
// (Options.Pipeline off, or after close) the executor has no goroutine and
// submit runs the batch on the caller — the synchronous mode is a state of
// the one path, not a second path. The goroutine is what lets guest
// submission overlap device simulation, and what lets an N-device
// MultiService simulate N devices concurrently in wall clock — each device's
// simulated clock, metrics registry, and trace log are touched only by its
// token holder, so no cross-device synchronization is needed until a merge
// point (Sync/Snapshot/Traces) drains the pipelines, and a drain that helps
// one device leaves the others to their goroutines.
//
// Health counters (queue depth, batches, enqueue stalls, batches run by a
// drainer) are the core.exec.* host family of the service registry: executor
// load is a wall-clock property of the host, and leaving the family out of
// Service.Snapshot is what keeps pipeline-on and pipeline-off snapshots
// byte-identical.
type executor struct {
	s       *Service
	stopped chan struct{} // closed when the goroutine has exited; nil if never pipelined

	mu sync.Mutex
	// work wakes the goroutine: a batch was queued, or the executor closed.
	// cond wakes everyone else: a queue slot opened or a batch retired.
	work, cond *sync.Cond
	queue      [ExecQueueDepth]execBatch // FIFO ring of batches not yet taken
	head, n    int
	running    bool // the token: a goroutine is running a batch
	helpers    int  // goroutines in drain; the goroutine leaves the queue to them
	inflight   int  // batches accepted (or pending enqueue) but not yet retired
	highWater  int  // max inflight ever seen
	inline     bool // no goroutine: submit runs batches on the caller
	// Per-batch instruments, resolved under mu by the first pipelined submit.
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

// newExecutor builds a service's execution pipeline, starting its goroutine
// only when pipelined.
func newExecutor(s *Service, pipelined bool) *executor {
	e := &executor{s: s, inline: !pipelined}
	e.work, e.cond = sync.NewCond(&e.mu), sync.NewCond(&e.mu)
	if pipelined {
		e.stopped = make(chan struct{})
		go e.run()
	}
	return e
}

// run is the executor goroutine: it runs queued batches whenever it can take
// the token and no drainer is there to, and exits once the executor is closed
// and the queue is empty.
func (e *executor) run() {
	defer close(e.stopped)
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		switch {
		case !e.running && e.n > 0 && e.helpers == 0:
			e.runHead(false)
		case e.inline && e.n == 0:
			return
		default:
			e.work.Wait()
		}
	}
}

// runHead takes the token and the batch at the head of the queue, runs it
// with e.mu released, and retires it. Caller holds e.mu, the token is free
// and the queue is not empty.
func (e *executor) runHead(byDrainer bool) {
	b := e.queue[e.head]
	e.queue[e.head] = execBatch{}
	e.head, e.n = (e.head+1)%ExecQueueDepth, e.n-1
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

// submit runs a batch: inline on the caller's goroutine, or queued for the
// token holder, blocking for backpressure while the bounded queue is full.
// Inline batches touch no health counter — there is no queue to be healthy.
// Callers serialize through Service.dispatchMu, which preserves the
// drain-order = execution-order invariant in both states.
func (e *executor) submit(b execBatch) {
	e.mu.Lock()
	if e.inline {
		e.mu.Unlock()
		e.s.dispatch(b.jobs, b.rec)
		close(b.done)
		return
	}
	// Count the batch before waiting for a slot: a drain must not slip past a
	// batch that is accepted but still waiting for one. The depth gauge counts
	// in-pipeline batches (accepted but not retired) and is only ever written
	// under e.mu.
	e.inflight++
	e.setDepth()
	e.batches.Inc()
	if e.n == ExecQueueDepth {
		e.s.metrics.Counter("core.exec.enqueue_stalls").Inc()
		start := time.Now()
		for e.n == ExecQueueDepth {
			e.cond.Wait()
		}
		e.s.metrics.Counter("core.exec.stall_wait_ns").Add(time.Since(start).Nanoseconds())
	}
	e.queue[(e.head+e.n)%ExecQueueDepth] = b
	e.n++
	e.mu.Unlock()
	e.work.Signal()
}

// drain blocks until every batch enqueued so far has fully retired — the
// barrier behind Sync, Flush, Snapshot, Trace merges, and VP disconnects —
// running queued batches itself whenever the token is free.
func (e *executor) drain() {
	e.mu.Lock()
	e.help()
	e.mu.Unlock()
}

// help is drain's loop. Caller holds e.mu.
func (e *executor) help() {
	e.helpers++
	for e.inflight > 0 {
		if !e.running && e.n > 0 {
			e.runHead(true)
			continue
		}
		e.cond.Wait()
	}
	e.helpers--
}

// close drains the pipeline, stops the goroutine and waits for it to exit;
// the executor is inline from then on. Idempotent, and a no-op on an
// executor that was never pipelined.
func (e *executor) close() {
	e.mu.Lock()
	e.help()
	if e.inline {
		e.mu.Unlock()
		return
	}
	e.inline = true
	e.work.Signal()
	e.mu.Unlock()
	<-e.stopped
}
