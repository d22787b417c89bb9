package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/hostgpu"
	"repro/internal/sched"
	"repro/internal/vp"
)

// pipelineSnapshot drives three sequential VP sessions with the pipeline
// toggled and returns the makespan plus the simulated-work snapshot bytes.
// Sessions are sequential because live goroutine-driven fleets race batch
// boundaries against wall clock in either mode; deterministic multi-VP
// equivalence is pinned by the experiments-level lock-step tests.
func pipelineSnapshot(t *testing.T, pipeline bool) (float64, []byte) {
	t.Helper()
	opts := DefaultOptions()
	opts.Pipeline = pipeline
	m, s := farmOfOne(t, opts)
	defer s.Close()
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

// TestPipelineEquivalence is the tentpole's core guarantee: the execution
// pipeline changes wall-clock behavior only. Simulated makespan and the full
// metrics snapshot (counters, histograms, job events) are byte-identical
// with the executor on or off.
func TestPipelineEquivalence(t *testing.T) {
	syncT, syncSnap := pipelineSnapshot(t, false)
	pipeT, pipeSnap := pipelineSnapshot(t, true)
	if syncT != pipeT {
		t.Fatalf("makespan diverged: sync %.9f, pipelined %.9f", syncT, pipeT)
	}
	if !bytes.Equal(syncSnap, pipeSnap) {
		t.Fatalf("snapshot diverged:\n--- sync\n%s\n--- pipelined\n%s", syncSnap, pipeSnap)
	}
}

// TestPipelineExecMetrics: a pipelined run records executor health in the
// separate registry — batches flow through the queue — while the simulated
// registry stays free of core.exec.* families.
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

	exec := s.ExecMetrics().Snapshot()
	if got := exec.CounterValue("core.exec.batches"); got == 0 {
		t.Fatal("no batches counted through the executor")
	}
	sim := s.Snapshot()
	for _, c := range sim.Counters {
		if len(c.Name) >= 10 && c.Name[:10] == "core.exec." {
			t.Fatalf("executor counter %q leaked into the simulated-work registry", c.Name)
		}
	}
}

// TestPipelineCloseFallsBackSynchronous: after Close the service keeps
// working — batches dispatch on the submitter's goroutine again.
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
	if got := s.ExecMetrics().Snapshot().CounterValue("core.exec.batches"); got != 0 {
		t.Fatalf("closed executor still counted %d batches", got)
	}
}

// TestPipelineOffExecMetricsEmpty: with the pipeline off the executor-health
// registry exists but records nothing.
func TestPipelineOffExecMetricsEmpty(t *testing.T) {
	opts := DefaultOptions()
	opts.Pipeline = false
	s := NewService(opts)
	j := sched.NewCustom(0, 0, hostgpu.EngineH2D, "sync-mode",
		func(j *sched.Job, g *hostgpu.GPU) error { return nil })
	s.Submit(j)
	s.Flush()
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if snap := s.ExecMetrics().Snapshot(); len(snap.Counters) != 0 {
		t.Fatalf("synchronous service recorded executor counters: %+v", snap.Counters)
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

// startedExecutor reports whether NewService launched the executor goroutine.
// The tests read the executor's own state rather than a goroutine-count
// delta, which a goroutine of an earlier test still winding down would skew.
func startedExecutor(s *Service) bool { return s.exec.stopped != nil }

// TestOneDispatchPath drives the executor's three states — pipelined, inline
// because Options.Pipeline is off, inline because the service was closed —
// through one submit → flush → wait → snapshot script. There is one dispatch
// body, so the simulated snapshots are byte-identical; only the pipelined
// state has a goroutine, so only it counts batches, and after Close no state
// leaves a goroutine behind.
func TestOneDispatchPath(t *testing.T) {
	states := []struct {
		name        string
		pipeline    bool
		closeFirst  bool
		wantBatches bool
	}{
		{"pipelined", true, false, true},
		{"pipeline-off", false, false, false},
		{"closed", true, true, false},
	}
	var ref []byte
	for _, st := range states {
		before := runtime.NumGoroutine()
		opts := DefaultOptions()
		opts.Pipeline = st.pipeline
		m, s := farmOfOne(t, opts)
		if startedExecutor(s) != st.pipeline {
			t.Fatalf("%s: NewService started an executor goroutine: %v", st.name, !st.pipeline)
		}
		if st.closeFirst {
			s.Close()
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
		if got := s.ExecMetrics().Snapshot().CounterValue("core.exec.batches"); (got > 0) != st.wantBatches {
			t.Fatalf("%s: core.exec.batches = %d", st.name, got)
		}
		s.Close()
		s.Close()
		settledGoroutines(t, before)
	}
}

// TestCloseLeavesNoGoroutine: whatever the shutdown order — Close before any
// traffic, Close after traffic, Close twice — a Service and a 4-device farm
// end with the goroutines they started with.
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
		if !startedExecutor(idleFarm.Device(i)) {
			t.Fatalf("device %d of a pipelined farm has no executor goroutine", i)
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
	// A closed farm still serves, inline.
	farm.RegisterVP(9)
	v := vp.New(9, arch.ARMVersatile(), cudart.NewContext(9, farm.Backend(9)))
	if err := v.Run(vecAddApp(64, 1)); err != nil {
		t.Fatalf("closed farm: %v", err)
	}
	settledGoroutines(t, before)
}
