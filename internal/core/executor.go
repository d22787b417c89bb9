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

// executor is a Service's execution pipeline. Pipelined, it is one goroutine
// that consumes drained batches from a bounded queue and runs them against
// the device model; inline (Options.Pipeline off, or after close) it has no
// goroutine and submit runs the batch on the caller — the synchronous mode is
// a state of the one path, not a second path. The goroutine is what lets
// guest submission overlap device simulation, and what lets an N-device
// MultiService simulate N devices concurrently in wall clock — each device's
// simulated clock, metrics registry, and trace log are private to its
// executor goroutine, so no cross-device synchronization is needed until a
// merge point (Sync/Snapshot/Traces) drains the pipelines.
//
// Health counters (queue depth, batches, enqueue stalls) are the core.exec.*
// host family of the service registry: executor load is a wall-clock property
// of the host, and leaving the family out of Service.Snapshot is what keeps
// pipeline-on and pipeline-off snapshots byte-identical.
type executor struct {
	s       *Service
	ch      chan execBatch
	stopped chan struct{} // closed when the goroutine has exited

	mu        sync.Mutex
	cond      *sync.Cond
	inflight  int  // batches enqueued (or pending enqueue) but not yet retired
	highWater int  // max inflight ever seen
	inline    bool // no goroutine: submit runs batches on the caller
	// Per-batch instruments, resolved under mu by the first pipelined submit.
	depth, depthHW *metrics.Gauge
	batches        *metrics.Counter
}

// setDepth publishes the pipeline depth gauges. Caller holds e.mu: the gauge
// has exactly one owner (whichever goroutine holds the mutex), so concurrent
// enqueue/retire can never publish a stale depth over a fresher one —
// metrics.Gauge.Set is only safe with a single writer.
func (e *executor) setDepth() {
	if e.depth == nil {
		m := e.s.metrics
		e.depth, e.depthHW = m.Gauge("core.exec.queue_depth"), m.Gauge("core.exec.queue_depth_hw")
		e.batches = m.Counter("core.exec.batches")
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
	e.cond = sync.NewCond(&e.mu)
	if pipelined {
		e.ch = make(chan execBatch, ExecQueueDepth)
		e.stopped = make(chan struct{})
		go e.run()
	}
	return e
}

// run is the executor goroutine: it owns every touch of the service's device
// model, so batches execute exactly as they do inline — same order, same
// coalescing, same planner state — just off the submitter's goroutine.
func (e *executor) run() {
	defer close(e.stopped)
	for b := range e.ch {
		e.s.dispatch(b.jobs, b.rec)
		e.mu.Lock()
		e.inflight--
		e.setDepth()
		if e.inflight == 0 {
			e.cond.Broadcast()
		}
		e.mu.Unlock()
		close(b.done)
	}
}

// submit runs a batch: inline on the caller's goroutine, or handed to the
// pipeline goroutine, blocking for backpressure when the bounded queue is
// full. Inline batches touch no health counter — there is no queue to be
// healthy. Callers serialize through Service.dispatchMu, which preserves the
// drain-order = execution-order invariant in both states.
func (e *executor) submit(b execBatch) {
	e.mu.Lock()
	if e.inline {
		e.mu.Unlock()
		e.s.dispatch(b.jobs, b.rec)
		close(b.done)
		return
	}
	// Count the batch before the channel send: a drain must not slip past a
	// batch that is accepted but still waiting for a queue slot. The depth
	// gauge now counts in-pipeline batches (accepted but not retired) and is
	// only ever written under e.mu — setting it from the channel length after
	// the blocking send raced the executor goroutine's own update and could
	// publish a stale depth over a fresher one.
	e.inflight++
	e.setDepth()
	e.mu.Unlock()

	e.batches.Inc()
	select {
	case e.ch <- b:
	default:
		e.s.metrics.Counter("core.exec.enqueue_stalls").Inc()
		start := time.Now()
		e.ch <- b
		e.s.metrics.Counter("core.exec.stall_wait_ns").Add(time.Since(start).Nanoseconds())
	}
}

// drain blocks until every batch enqueued so far has fully retired — the
// barrier behind Sync, Flush, Snapshot, Trace merges, and VP disconnects.
func (e *executor) drain() {
	e.mu.Lock()
	for e.inflight > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// close drains the pipeline, stops the goroutine and waits for it to exit;
// the executor is inline from then on. Idempotent, and a no-op on an
// executor that was never pipelined.
func (e *executor) close() {
	e.mu.Lock()
	for e.inflight > 0 {
		e.cond.Wait()
	}
	if e.inline {
		e.mu.Unlock()
		return
	}
	e.inline = true
	close(e.ch)
	e.mu.Unlock()
	<-e.stopped
}
