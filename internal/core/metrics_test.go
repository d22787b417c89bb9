package core

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vp"
)

// serviceSnapshot drives three sequential VP sessions through a service whose
// device interprets kernel blocks on the given worker-pool size, and returns
// the metrics snapshot bytes. The workload is driven from this goroutine, so
// any difference between runs can only come from the worker pool.
func serviceSnapshot(t *testing.T, workers int) []byte {
	t.Helper()
	m, s := farmOfOne(t, DefaultOptions())
	s.GPU.Workers = workers
	for id := 1; id <= 3; id++ {
		s.RegisterVP(id)
		v := vp.New(id, arch.ARMVersatile(), cudart.NewContext(id, m.Backend(id)))
		if err := v.Run(m.WrapApp(vecAddApp(128*id, 2))); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	data, err := s.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotWorkerInvariance: for a given workload, the observability
// snapshot — counters, gauges and histograms — is byte-identical regardless
// of the -workers value.
func TestSnapshotWorkerInvariance(t *testing.T) {
	serial := serviceSnapshot(t, 1)
	pooled := serviceSnapshot(t, 4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("snapshot differs between workers=1 and workers=4:\n--- workers=1\n%s\n--- workers=4\n%s", serial, pooled)
	}
}

// TestServiceJobEvents checks the timeline records each job's lifecycle with
// simulated timestamps: one op record per job, stamped with its VP, and
// submitted ≤ planned ≤ started < ended. Planned ≤ started holds because one
// VP's synchronous jobs each wait for the job before, which set the engine
// frontier; TestPlanIsEngineFrontier shows it need not hold across VPs.
func TestServiceJobEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	m, s := farmOfOne(t, opts)
	s.RegisterVP(1)
	v := vp.New(1, arch.ARMVersatile(), cudart.NewContext(1, m.Backend(1)))
	if err := v.Run(m.WrapApp(vecAddApp(256, 1))); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	recs := s.Trace().Timeline().Records
	// One iteration: 2 H2D + 1 kernel + 1 D2H = 4 jobs, one op each.
	byEngine := map[string]int{}
	for _, r := range recs {
		byEngine[r.Engine]++
		if r.Kind != trace.KindOp || r.VP != 1 {
			t.Fatalf("record %+v: want an op of VP 1", r)
		}
		if !(r.Submit <= r.Plan && r.Plan <= r.Start && r.Start < r.End) {
			t.Fatalf("record %+v: want submit ≤ plan ≤ start < end", r)
		}
	}
	if len(recs) != 4 || byEngine["h2d"] != 2 || byEngine["compute"] != 1 || byEngine["d2h"] != 1 {
		t.Fatalf("records by engine %v, want 2 h2d, 1 compute, 1 d2h: %+v", byEngine, recs)
	}
	if got := s.Metrics().Counter("core.jobs_completed").Value(); got != 4 {
		t.Fatalf("core.jobs_completed = %d, want 4", got)
	}
}

// TestPlanIsEngineFrontier pins what a record's plan time is: the device's
// engine frontier when its batch was planned. A D2H planned while a long H2D
// keeps the copy-in engine busy runs on its idle engine at once, before its
// plan time; its submit time is the same frontier, so submit ≤ plan holds.
func TestPlanIsEngineFrontier(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	s := newService(opts)
	src, err := s.GPU.Mem.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.GPU.Mem.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(sched.NewH2D(1, VPStream(1, 0), src, 0, make([]byte, 1<<20)))
	s.Flush()
	s.Submit(sched.NewD2H(2, VPStream(2, 0), dst, 0, 64))
	s.Flush()

	recs := s.Trace().Timeline().Records
	if len(recs) != 2 {
		t.Fatalf("%d records, want the H2D and the D2H: %+v", len(recs), recs)
	}
	d2h, h2d := recs[0], recs[1] // both start at 0; sorted by engine
	if h2d.Engine != "h2d" || d2h.Engine != "d2h" {
		t.Fatalf("records %+v, want a D2H and an H2D", recs)
	}
	if d2h.Plan != h2d.End || d2h.Submit != d2h.Plan {
		t.Errorf("D2H submit %v, plan %v: want both the H2D's end %v, the frontier", d2h.Submit, d2h.Plan, h2d.End)
	}
	if !(d2h.Start < d2h.Plan) {
		t.Errorf("D2H starts at %v, want before its plan time %v: its engine was idle", d2h.Start, d2h.Plan)
	}
}
