package core

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/metrics"
	"repro/internal/vp"
)

// serviceSnapshot drives three sequential VP sessions through a service whose
// device interprets kernel blocks on the given worker-pool size, and returns
// the metrics snapshot bytes. The workload is driven from this goroutine, so
// any difference between runs can only come from the worker pool.
func serviceSnapshot(t *testing.T, workers int) []byte {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	opts.ComputeSlots = 2
	m, s := farmOfOne(t, opts)
	for id := 1; id <= 3; id++ {
		s.RegisterVP(id)
		v := vp.New(id, arch.ARMVersatile(), cudart.NewContext(id, m.Backend(id)))
		if err := v.Run(m.WrapApp(vecAddApp(128*id, 2))); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	data, err := s.Metrics().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotWorkerInvariance is the ISSUE's acceptance property: for a given
// workload, the observability snapshot — counters, histograms, and the full
// job event trace — is byte-identical regardless of the -workers value.
func TestSnapshotWorkerInvariance(t *testing.T) {
	serial := serviceSnapshot(t, 1)
	pooled := serviceSnapshot(t, 4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("snapshot differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s", serial, pooled)
	}
}

// TestServiceJobEvents checks the structured trace records the full job
// lifecycle with simulated timestamps.
func TestServiceJobEvents(t *testing.T) {
	opts := DefaultOptions()
	m, s := farmOfOne(t, opts)
	s.RegisterVP(1)
	v := vp.New(1, arch.ARMVersatile(), cudart.NewContext(1, m.Backend(1)))
	if err := v.Run(m.WrapApp(vecAddApp(256, 1))); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	events := s.Metrics().Events()
	if len(events) == 0 {
		t.Fatal("no job events recorded")
	}
	byKind := map[string]int{}
	for _, e := range events {
		byKind[e.Kind]++
		if e.VP != 1 {
			t.Fatalf("event %+v has VP %d, want 1", e, e.VP)
		}
	}
	// One iteration: 2 H2D + 1 kernel + 1 D2H = 4 jobs, each passing through
	// submitted → scheduled → dispatched → completed.
	for _, k := range []string{
		metrics.EventSubmitted, metrics.EventScheduled,
		metrics.EventDispatched, metrics.EventCompleted,
	} {
		if byKind[k] != 4 {
			t.Fatalf("%s events = %d, want 4 (events: %+v)", k, byKind[k], events)
		}
	}
	for _, e := range events {
		if e.Kind == metrics.EventCompleted && e.End <= 0 {
			t.Fatalf("completed event missing end time: %+v", e)
		}
	}
}
