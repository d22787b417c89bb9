package metrics

import (
	"bytes"
	"sync"
	"testing"
)

// TestSnapshotInterleavingInvariance is the registry-level determinism
// property: the same multiset of instrument operations, applied serially or
// from many goroutines in arbitrary interleavings, must produce byte-identical
// snapshots. Run under -race this also exercises the concurrency safety of
// every instrument.
func TestSnapshotInterleavingInvariance(t *testing.T) {
	const workers = 8
	const perWorker = 500

	record := func(r *Registry, worker, i int) {
		// Values depend only on (worker, i), never on interleaving.
		r.Counter("ops").Inc()
		r.Counter("bytes").Add(int64(worker*1000 + i))
		r.Gauge("inflight").Add(1)
		r.Gauge("inflight").Sub(1)
		r.Histogram("latency", LatencyBuckets).Observe(float64(i%7) * 1e-4)
		r.Histogram("sizes", CountBuckets).Observe(float64(worker))
	}

	serial := New()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			record(serial, w, i)
		}
	}
	want, err := serial.Snapshot().JSON()
	if err != nil {
		t.Fatalf("serial snapshot: %v", err)
	}

	for trial := 0; trial < 3; trial++ {
		conc := New()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					record(conc, w, i)
				}
			}(w)
		}
		wg.Wait()
		got, err := conc.Snapshot().JSON()
		if err != nil {
			t.Fatalf("concurrent snapshot: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: concurrent snapshot differs from serial", trial)
		}
	}
}
