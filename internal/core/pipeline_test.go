package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/hostgpu"
	"repro/internal/sched"
	"repro/internal/vp"
)

// pipelineSnapshot drives three sequential VP sessions through a service and
// returns the makespan, the simulated-work snapshot bytes, and how many
// batches ran and how many of those a drainer ran. With drainers set, submit
// starts no runner (the test holds the runner flag) and a test goroutine
// drains whenever a batch is queued, so drainers run every batch; otherwise
// the service runs free and its runners run them. Sessions are sequential
// because live goroutine-driven fleets race batch boundaries against wall
// clock; the deterministic multi-VP guarantee is pinned by the
// experiments-level lock-step tests.
func pipelineSnapshot(t *testing.T, drainers bool) (makespan float64, snap []byte, batches, byDrainer int64) {
	t.Helper()
	m, s := farmOfOne(t, DefaultOptions())
	if drainers {
		defer drainEveryBatch(s)()
	}
	for id := 1; id <= 3; id++ {
		s.RegisterVP(id)
		v := vp.New(id, arch.ARMVersatile(), cudart.NewContext(id, m.Backend(id)))
		if err := v.Run(m.WrapApp(vecAddApp(256*id, 2))); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	snap, err := s.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	exec := s.Metrics().Select("core.exec.")
	return s.Sync(), snap, exec.CounterValue("core.exec.batches"), exec.CounterValue("core.exec.batches_by_drainer")
}

// drainEveryBatch makes drainers run every batch of s: it holds the
// executor's runner flag, so submit starts no runner, and drains from a
// goroutine of its own whenever a batch is queued. The returned stop ends the
// goroutine; the flag stays held.
func drainEveryBatch(s *Service) (stop func()) {
	e := s.exec
	e.mu.Lock()
	e.runner = true
	e.mu.Unlock()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			e.mu.Lock()
			queued := e.n > 0
			e.mu.Unlock()
			if queued {
				s.Drain()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// TestPipelineEquivalence: who runs a batch changes wall-clock behavior only.
// Simulated makespan and the full metrics snapshot (counters, gauges,
// histograms) are byte-identical whether drainers run every batch or the
// service runs free and its runners run them.
func TestPipelineEquivalence(t *testing.T) {
	drainedT, drainedSnap, drainedBatches, drainedByDrainer := pipelineSnapshot(t, true)
	freeT, freeSnap, freeBatches, freeByDrainer := pipelineSnapshot(t, false)
	if drainedBatches == 0 || drainedByDrainer != drainedBatches {
		t.Fatalf("drained side: drainers ran %d of %d batches, want all", drainedByDrainer, drainedBatches)
	}
	if freeByDrainer >= freeBatches {
		t.Fatalf("free side: drainers ran %d of %d batches, want runners to run some", freeByDrainer, freeBatches)
	}
	if drainedT != freeT {
		t.Fatalf("makespan diverged: drained %.9f, free %.9f", drainedT, freeT)
	}
	if !bytes.Equal(drainedSnap, freeSnap) {
		t.Fatalf("snapshot diverged:\n--- drained\n%s\n--- free\n%s", drainedSnap, freeSnap)
	}
}

// TestPipelineExecMetrics: a pipelined run records executor health in the
// core.exec.* host family — batches flow through the queue — while the
// simulated snapshot stays free of it.
func TestPipelineExecMetrics(t *testing.T) {
	opts := DefaultOptions()
	m, s := farmOfOne(t, opts)
	s.RegisterVP(0)
	ctx := cudart.NewContext(0, m.Backend(0))
	p, err := ctx.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2D(p, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	s.UnregisterVP(0)
	s.Flush()

	exec := s.Metrics().Select("core.exec.")
	if got := exec.CounterValue("core.exec.batches"); got == 0 {
		t.Fatal("no batches counted through the executor")
	}
	sim := s.Snapshot()
	for _, c := range sim.Counters {
		if len(c.Name) >= 10 && c.Name[:10] == "core.exec." {
			t.Fatalf("executor counter %q leaked into the simulated snapshot", c.Name)
		}
	}
}

// settledGoroutines polls until the goroutine count is back at (or under)
// want: a runner stays counted for an instant after the batch it ran
// retires, and a goroutine of an earlier test may still be winding down.
func settledGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, started with %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneDispatchPath drives the executor's one state through a submit →
// flush → wait → snapshot script: served and raw batches both go through the
// queue and runHead, both are counted, and once the snapshot has drained the
// pipeline no goroutine is left behind.
func TestOneDispatchPath(t *testing.T) {
	before := runtime.NumGoroutine()
	m, s := farmOfOne(t, DefaultOptions())
	s.RegisterVP(0)
	ctx := cudart.NewContext(0, m.Backend(0))
	p, err := ctx.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2DAsync(0, p, bytes.Repeat([]byte{7}, 256)); err != nil {
		t.Fatal(err)
	}
	tok, err := ctx.MemcpyD2HAsync(1, p, 256)
	if err != nil {
		t.Fatal(err)
	}
	s.UnregisterVP(0)
	s.Flush()
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	served := s.Metrics().Select("core.exec.").CounterValue("core.exec.batches")
	if served == 0 {
		t.Fatal("core.exec.batches = 0 after a served batch")
	}
	// A raw batch takes the same body with the accounting skipped.
	raw := sched.NewCustom(0, 0, hostgpu.EngineCompute, "raw",
		func(j *sched.Job, g *hostgpu.GPU) error { return nil })
	s.DispatchRaw([]*sched.Job{raw})
	if _, err := s.Snapshot().JSON(); err != nil {
		t.Fatal(err)
	}
	if err := raw.Wait(); err != nil {
		t.Fatalf("raw job: %v", err)
	}
	if got := s.Metrics().Select("core.exec.").CounterValue("core.exec.batches"); got != served+1 {
		t.Fatalf("core.exec.batches = %d after a raw batch, want %d", got, served+1)
	}
	settledGoroutines(t, before)
}

// TestIdleFarmHoldsNoGoroutine: a device holds a goroutine only while it has
// work. Building a 4-device farm starts none; after in-process VPs and a
// lock-step round on every device, a Drain leaves the goroutines the test
// started with — there is nothing to close — and so does a drain racing a
// drainer inside a batch.
func TestIdleFarmHoldsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	farm := newFarm(t, 4)
	settledGoroutines(t, before)

	fleet := vp.NewFleet(8, arch.ARMVersatile(), func(id int) *cudart.Context {
		farm.RegisterVP(id)
		return cudart.NewContext(id, farm.Backend(id))
	})
	if err := fleet.Run(farm.WrapApp(vecAddApp(256, 1))); err != nil {
		t.Fatal(err)
	}
	round := noopRound(farm)
	for d, j := range round {
		farm.DispatchBatch(d, []*sched.Job{j})
	}
	farm.Drain()
	for d, j := range round {
		if err := j.Wait(); err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
	}
	settledGoroutines(t, before)

	drainWhileDrainerRuns(t)
	settledGoroutines(t, before)
}

// newFarm builds a farm of Quadro 4000 devices.
func newFarm(tb testing.TB, devices int) *MultiService {
	tb.Helper()
	gpus := make([]arch.GPU, devices)
	for d := range gpus {
		gpus[d] = arch.Quadro4000()
	}
	farm, err := NewMultiService(DefaultOptions(), gpus)
	if err != nil {
		tb.Fatal(err)
	}
	return farm
}

// noopRound builds one no-op raw job per device of farm.
func noopRound(farm *MultiService) []*sched.Job {
	round := make([]*sched.Job, farm.Devices())
	for d := range round {
		round[d] = sched.NewCustom(0, 0, hostgpu.EngineCompute, "round",
			func(*sched.Job, *hostgpu.GPU) error { return nil })
	}
	return round
}

// execCounts sums core.exec.batches and core.exec.batches_by_drainer over
// the farm's devices.
func execCounts(farm *MultiService) (batches, byDrainer int64) {
	for d := 0; d < farm.Devices(); d++ {
		reg := farm.Device(d).Metrics()
		batches += reg.Counter("core.exec.batches").Value()
		byDrainer += reg.Counter("core.exec.batches_by_drainer").Value()
	}
	return batches, byDrainer
}

// TestLockstepRoundRunsOnItsDrainer: a lock-step round — one raw batch per
// device, then a drain — starts no runner. Every batch runs on the drainer,
// and no goroutine is alive after a round's dispatches that was not alive
// before the farm was built.
func TestLockstepRoundRunsOnItsDrainer(t *testing.T) {
	const rounds = 16
	farm := newFarm(t, 4)
	before := runtime.NumGoroutine()
	for r := 0; r < rounds; r++ {
		jobs := noopRound(farm)
		for d, j := range jobs {
			farm.DispatchBatch(d, []*sched.Job{j})
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("round %d: %d goroutines after the dispatches, %d before the first", r, n, before)
		}
		farm.Drain()
		for d, j := range jobs {
			if err := j.Wait(); err != nil {
				t.Fatalf("round %d, device %d: %v", r, d, err)
			}
		}
	}
	batches, byDrainer := execCounts(farm)
	if batches != rounds*4 || byDrainer != batches {
		t.Fatalf("drainers ran %d of %d batches, want all %d", byDrainer, batches, rounds*4)
	}
}

// TestPipelinedRawBatchesGetARunner: a submitter that queues a device's
// next raw batch before any barrier gets a runner for that device, so its
// devices simulate concurrently behind its back. A job of the first batch
// finishes before anyone drains, and the final drain finds at most a full
// queue per device left to run itself.
func TestPipelinedRawBatchesGetARunner(t *testing.T) {
	const iters = 16
	farm := newFarm(t, 4)
	var first []*sched.Job
	for it := 0; it < iters; it++ {
		jobs := noopRound(farm)
		if it == 0 {
			first = jobs
		}
		for d, j := range jobs {
			farm.DispatchBatch(d, []*sched.Job{j})
		}
	}
	done := make(chan error, 1)
	go func() { done <- first[0].Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first batch did not run before a drain: no runner was started")
	}
	farm.Drain()
	batches, byDrainer := execCounts(farm)
	t.Logf("drainers ran %d of %d batches", byDrainer, batches)
	if batches != iters*4 {
		t.Fatalf("core.exec.batches = %d, want %d", batches, iters*4)
	}
	if limit := int64(4 * execQueueDepth); byDrainer > limit {
		t.Fatalf("drainers ran %d of %d batches, want at most %d (a full queue per device)", byDrainer, batches, limit)
	}
}

// BenchmarkLockstepRound: the host cost of one lock-step round, one no-op
// raw batch per device and then a drain.
func BenchmarkLockstepRound(b *testing.B) {
	for _, devices := range []int{1, 4} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			farm := newFarm(b, devices)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d, j := range noopRound(farm) {
					farm.DispatchBatch(d, []*sched.Job{j})
				}
				farm.Drain()
			}
		})
	}
}

// heldBatches builds one-job raw batches for the executor tests. Batch i
// records i when it runs; a batch whose index has a channel in hold signals
// entered[i] once it is inside dispatch and stays there until hold[i] is
// closed. Every job checks, from inside dispatch, that no other batch is in
// there with it.
type heldBatches struct {
	t          *testing.T
	inDispatch atomic.Bool
	mu         sync.Mutex
	order      []int
	entered    map[int]chan struct{}
	hold       map[int]chan struct{}
}

func newHeldBatches(t *testing.T, held ...int) *heldBatches {
	h := &heldBatches{t: t, entered: map[int]chan struct{}{}, hold: map[int]chan struct{}{}}
	for _, i := range held {
		h.entered[i], h.hold[i] = make(chan struct{}), make(chan struct{})
	}
	return h
}

func (h *heldBatches) batch(i int) []*sched.Job {
	return []*sched.Job{sched.NewCustom(0, 0, hostgpu.EngineCompute, "held", func(*sched.Job, *hostgpu.GPU) error {
		if !h.inDispatch.CompareAndSwap(false, true) {
			h.t.Errorf("batch %d entered dispatch while another batch was inside", i)
		}
		if hold, ok := h.hold[i]; ok {
			close(h.entered[i])
			<-hold
		}
		h.mu.Lock()
		h.order = append(h.order, i)
		h.mu.Unlock()
		h.inDispatch.Store(false)
		return nil
	})}
}

// waitHelpers waits until n goroutines are inside the executor's drain loop.
func waitHelpers(t *testing.T, e *executor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		got := e.helpers
		e.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines in drain, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainerRunsQueuedBatches: while the runner — started by the second
// raw batch queued behind the first — is held inside a batch, a full queue
// waits behind it. A goroutine that drains takes those batches over once the
// token is free and runs them itself, in FIFO order; no two batches are ever
// inside dispatch at once, and the host counter says who ran them.
func TestDrainerRunsQueuedBatches(t *testing.T) {
	s := newService(DefaultOptions())
	h := newHeldBatches(t, 0)
	s.DispatchRaw(h.batch(0))
	s.DispatchRaw(h.batch(1)) // queued behind batch 0: starts the runner
	<-h.entered[0]            // the runner holds the token
	for i := 2; i <= execQueueDepth; i++ {
		s.DispatchRaw(h.batch(i))
	}
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitHelpers(t, s.exec, 1)
	close(h.hold[0])
	<-drained

	want := []int{0, 1, 2, 3, 4}
	if !slices.Equal(h.order, want) {
		t.Fatalf("batches ran in order %v, want %v", h.order, want)
	}
	reg := s.Metrics()
	if got := reg.Counter("core.exec.batches_by_drainer").Value(); got != execQueueDepth {
		t.Fatalf("core.exec.batches_by_drainer = %d, want %d", got, execQueueDepth)
	}
	if got := reg.Counter("core.exec.batches").Value(); got != execQueueDepth+1 {
		t.Fatalf("core.exec.batches = %d, want %d", got, execQueueDepth+1)
	}
	if got := reg.Gauge("core.exec.queue_depth").Value(); got != 0 {
		t.Fatalf("core.exec.queue_depth = %d after the drain", got)
	}
}

// drainWhileDrainerRuns drains while a drainer is inside a batch: the second
// drain waits for the first, and every batch runs once, in order, one at a
// time.
func drainWhileDrainerRuns(t *testing.T) {
	s := newService(DefaultOptions())
	h := newHeldBatches(t, 0, 1)
	s.DispatchRaw(h.batch(0))
	s.DispatchRaw(h.batch(1)) // queued behind batch 0: starts the runner
	<-h.entered[0]
	s.DispatchRaw(h.batch(2))
	drained, second := make(chan struct{}), make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitHelpers(t, s.exec, 1)
	close(h.hold[0])
	<-h.entered[1] // the drainer holds the token
	go func() {
		s.Drain()
		close(second)
	}()
	waitHelpers(t, s.exec, 2)
	close(h.hold[1])
	<-drained
	<-second
	if want := []int{0, 1, 2}; !slices.Equal(h.order, want) {
		t.Fatalf("batches ran in order %v, want %v", h.order, want)
	}
}
