package core

import (
	"bytes"
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

// pipelineSnapshot drives three sequential VP sessions through a service,
// closed first when closed is set, and returns the makespan plus the
// simulated-work snapshot bytes. Sessions are sequential because live
// goroutine-driven fleets race batch boundaries against wall clock; the
// deterministic multi-VP guarantee is pinned by the experiments-level
// lock-step tests.
func pipelineSnapshot(t *testing.T, closed bool) (float64, []byte) {
	t.Helper()
	m, s := farmOfOne(t, DefaultOptions())
	defer s.Close()
	if closed {
		s.Close()
	}
	for id := 1; id <= 3; id++ {
		s.RegisterVP(id)
		v := vp.New(id, arch.ARMVersatile(), cudart.NewContext(id, m.Backend(id)))
		if err := v.Run(m.WrapApp(vecAddApp(256*id, 2))); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	data, err := s.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return s.Sync(), data
}

// TestPipelineEquivalence: the execution pipeline changes wall-clock
// behavior only. Simulated makespan and the full metrics snapshot (counters,
// histograms, job events) are byte-identical whether the executor goroutine
// runs the batches or, with the service closed, each submitter runs its own.
func TestPipelineEquivalence(t *testing.T) {
	closedT, closedSnap := pipelineSnapshot(t, true)
	pipeT, pipeSnap := pipelineSnapshot(t, false)
	if closedT != pipeT {
		t.Fatalf("makespan diverged: closed %.9f, pipelined %.9f", closedT, pipeT)
	}
	if !bytes.Equal(closedSnap, pipeSnap) {
		t.Fatalf("snapshot diverged:\n--- closed\n%s\n--- pipelined\n%s", closedSnap, pipeSnap)
	}
}

// TestPipelineExecMetrics: a pipelined run records executor health in the
// core.exec.* host family — batches flow through the queue — while the
// simulated snapshot stays free of it.
func TestPipelineExecMetrics(t *testing.T) {
	opts := DefaultOptions()
	m, s := farmOfOne(t, opts)
	defer s.Close()
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

// TestPipelineCloseFallsBackSynchronous: after Close the service keeps
// working — each batch goes through the queue and its submitter runs it.
func TestPipelineCloseFallsBackSynchronous(t *testing.T) {
	s := NewService(DefaultOptions())
	s.Close()
	s.Close() // idempotent

	j := sched.NewCustom(0, 0, hostgpu.EngineH2D, "post-close",
		func(j *sched.Job, g *hostgpu.GPU) error { return nil })
	s.Submit(j)
	s.Flush()
	if err := j.Wait(); err != nil {
		t.Fatalf("post-close job failed: %v", err)
	}
	if got := s.Metrics().Select("core.exec.").CounterValue("core.exec.batches"); got != 1 {
		t.Fatalf("closed executor counted %d batches, want 1", got)
	}
}

// settledGoroutines polls until the goroutine count is back at (or under)
// want: an exiting goroutine stays counted for an instant after the channel
// close that announces it.
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

// executorRunning reports whether the service's executor goroutine is still
// running. The tests read the executor's own state rather than a
// goroutine-count delta, which a goroutine of an earlier test still winding
// down would skew.
func executorRunning(s *Service) bool {
	select {
	case <-s.exec.stopped:
		return false
	default:
		return true
	}
}

// TestOneDispatchPath drives the executor's two states — running its
// goroutine, and closed — through one submit → flush → wait → snapshot
// script. Both run every batch through the queue and runHead, so the
// simulated snapshots are byte-identical and both count their batches, and
// after Close neither leaves a goroutine behind.
func TestOneDispatchPath(t *testing.T) {
	states := []struct {
		name       string
		closeFirst bool
	}{
		{"pipelined", false},
		{"closed", true},
	}
	var ref []byte
	for _, st := range states {
		before := runtime.NumGoroutine()
		m, s := farmOfOne(t, DefaultOptions())
		if !executorRunning(s) {
			t.Fatalf("%s: NewService started no executor goroutine", st.name)
		}
		if st.closeFirst {
			s.Close()
			if executorRunning(s) {
				t.Fatalf("%s: Close left the executor goroutine running", st.name)
			}
		}

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
			t.Fatalf("%s: %v", st.name, err)
		}
		// A raw batch takes the same body with the accounting skipped.
		raw := sched.NewCustom(0, 0, hostgpu.EngineCompute, "raw",
			func(j *sched.Job, g *hostgpu.GPU) error { return nil })
		s.DispatchRaw([]*sched.Job{raw})
		snap, err := s.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := raw.Wait(); err != nil {
			t.Fatalf("%s: raw job: %v", st.name, err)
		}

		if ref == nil {
			ref = snap
		} else if !bytes.Equal(ref, snap) {
			t.Fatalf("%s: simulated snapshot differs from %s:\n%s\n---\n%s", st.name, states[0].name, snap, ref)
		}
		if got := s.Metrics().Select("core.exec.").CounterValue("core.exec.batches"); got == 0 {
			t.Fatalf("%s: core.exec.batches = %d", st.name, got)
		}
		s.Close()
		s.Close()
		settledGoroutines(t, before)
	}
}

// TestCloseLeavesNoGoroutine: whatever the shutdown order — Close before any
// traffic, Close after traffic, Close twice, Close while a drainer is running
// a batch — a Service and a 4-device farm end with the goroutines they started
// with.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()

	idle := NewService(DefaultOptions())
	idle.Close()
	idle.Close()
	settledGoroutines(t, before)

	gpus := []arch.GPU{arch.Quadro4000(), arch.Quadro4000(), arch.Quadro4000(), arch.Quadro4000()}
	idleFarm, err := NewMultiService(DefaultOptions(), gpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < idleFarm.Devices(); i++ {
		if !executorRunning(idleFarm.Device(i)) {
			t.Fatalf("device %d of a farm has no executor goroutine", i)
		}
	}
	idleFarm.Close()
	settledGoroutines(t, before)

	farm, err := NewMultiService(DefaultOptions(), gpus)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		farm.RegisterVP(id)
		v := vp.New(id, arch.ARMVersatile(), cudart.NewContext(id, farm.Backend(id)))
		if err := v.Run(vecAddApp(256, 1)); err != nil {
			t.Fatal(err)
		}
		farm.UnregisterVP(id)
	}
	farm.Flush()
	farm.Close()
	farm.Close()
	settledGoroutines(t, before)
	// A closed farm still serves, each submitter running its own batch.
	farm.RegisterVP(9)
	v := vp.New(9, arch.ARMVersatile(), cudart.NewContext(9, farm.Backend(9)))
	if err := v.Run(vecAddApp(64, 1)); err != nil {
		t.Fatalf("closed farm: %v", err)
	}
	settledGoroutines(t, before)

	closeWhileDrainerRuns(t)
	settledGoroutines(t, before)
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

// TestDrainerRunsQueuedBatches: while the executor goroutine is held inside a
// batch, a full queue waits behind it. A goroutine that drains takes those
// batches over once the token is free and runs them itself, in FIFO order;
// no two batches are ever inside dispatch at once, and the host counter says
// who ran them.
func TestDrainerRunsQueuedBatches(t *testing.T) {
	s := NewService(DefaultOptions())
	defer s.Close()
	h := newHeldBatches(t, 0)
	s.DispatchRaw(h.batch(0))
	<-h.entered[0] // the executor goroutine holds the token
	for i := 1; i <= ExecQueueDepth; i++ {
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
	if got := reg.Counter("core.exec.batches_by_drainer").Value(); got != ExecQueueDepth {
		t.Fatalf("core.exec.batches_by_drainer = %d, want %d", got, ExecQueueDepth)
	}
	if got := reg.Counter("core.exec.batches").Value(); got != ExecQueueDepth+1 {
		t.Fatalf("core.exec.batches = %d, want %d", got, ExecQueueDepth+1)
	}
	if got := reg.Gauge("core.exec.queue_depth").Value(); got != 0 {
		t.Fatalf("core.exec.queue_depth = %d after the drain", got)
	}
}

// closeWhileDrainerRuns calls Close while a drainer is inside a batch: Close
// waits for it, and every batch runs once, in order.
func closeWhileDrainerRuns(t *testing.T) {
	s := NewService(DefaultOptions())
	h := newHeldBatches(t, 0, 1)
	s.DispatchRaw(h.batch(0))
	<-h.entered[0]
	s.DispatchRaw(h.batch(1))
	s.DispatchRaw(h.batch(2))
	drained, closed := make(chan struct{}), make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitHelpers(t, s.exec, 1)
	close(h.hold[0])
	<-h.entered[1] // the drainer holds the token
	go func() {
		s.Close()
		close(closed)
	}()
	waitHelpers(t, s.exec, 2)
	close(h.hold[1])
	<-drained
	<-closed
	if want := []int{0, 1, 2}; !slices.Equal(h.order, want) {
		t.Fatalf("batches ran in order %v, want %v", h.order, want)
	}
	if !s.exec.closed {
		t.Fatal("Close returned with the executor still open")
	}
}
