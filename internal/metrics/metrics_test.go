package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("a.calls")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a.calls").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.depth")
	g.Add(3)
	g.Sub(1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Set = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	want := []int64{2, 2, 1} // (<=1): 0.5,1; (<=10): 5,10; (<=100): 99
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%g count = %d, want %d", b.LE, b.Count, want[i])
		}
	}
	if hs.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", hs.Overflow)
	}
	if hs.Count != 6 {
		t.Errorf("count = %d, want 6", hs.Count)
	}
	if hs.Sum != 1115.5 {
		t.Errorf("sum = %g, want 1115.5", hs.Sum)
	}
	// Second registration reuses the instrument; first bounds win.
	if h2 := r.Histogram("lat", []float64{5}); h2 != h {
		t.Error("re-registration returned a different histogram")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(2)
	r.Histogram("z", CountBuckets).Observe(3)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if s := r.Select("x"); s.Counters != nil {
		t.Errorf("nil registry selection not empty: %+v", s)
	}
}

func TestSnapshotSortedAndMarshalable(t *testing.T) {
	r := New()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Add(2)
	r.Gauge("m.mid").Set(-4)
	r.Histogram("h.one", []float64{1, 2}).Observe(1.5)

	s := r.Snapshot()
	if s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
	raw, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Counters) != 2 || len(back.Histograms) != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if strings.Contains(string(raw), "events") {
		t.Errorf("snapshot renders an events key:\n%s", raw)
	}
}

// TestSelectWithout pins the two-domain reads: Select and Without partition
// the instruments by prefix, a family with nothing kept stays nil (JSON null, as Snapshot prints it), and Without with
// a prefix nothing matches is Snapshot byte for byte.
func TestSelectWithout(t *testing.T) {
	r := New()
	r.Counter("sim.jobs").Add(3)
	r.Counter("host.batches").Inc()
	r.Gauge("host.depth").Set(2)
	r.Histogram("sim.lat", CountBuckets).Observe(1)
	host, sim := r.Select("host."), r.Without("host.")
	if len(host.Counters) != 1 || host.Counters[0].Name != "host.batches" || len(host.Gauges) != 1 {
		t.Fatalf("Select(host.) = %+v", host)
	}
	if host.Histograms != nil {
		t.Fatalf("Select(host.) kept a histogram: %+v", host)
	}
	if len(sim.Counters) != 1 || sim.Counters[0].Name != "sim.jobs" || len(sim.Histograms) != 1 {
		t.Fatalf("Without(host.) = %+v", sim)
	}
	if sim.Gauges != nil {
		t.Fatalf("Without(host.) gauges = %+v, want nil", sim.Gauges)
	}
	all, _ := r.Snapshot().JSON()
	none, _ := r.Without("nothing.").JSON()
	if !bytes.Equal(all, none) {
		t.Fatalf("Without(unmatched) differs from Snapshot:\n%s\n---\n%s", none, all)
	}
}
