package sched

import (
	"testing"

	"repro/internal/hostgpu"
)

// TestFairDrainCapsHotVP: with a fair share set, one VP's flood cannot
// monopolise a batch — its overflow stays queued for the next round while
// other VPs' jobs all make it in.
func TestFairDrainCapsHotVP(t *testing.T) {
	q := NewQueue()
	q.SetFairShare(2)
	var hot, cold []*Job
	for i := 0; i < 6; i++ {
		j := fakeJob(0, 0, hostgpu.EngineH2D)
		hot = append(hot, j)
		q.Push(j)
	}
	for i := 0; i < 2; i++ {
		j := fakeJob(1, 1, hostgpu.EngineH2D)
		cold = append(cold, j)
		q.Push(j)
	}

	batch := q.DrainBatch()
	if len(batch) != 4 {
		t.Fatalf("batch = %d jobs, want 4 (2 per VP)", len(batch))
	}
	count := map[int]int{}
	for _, j := range batch {
		count[j.VP]++
	}
	if count[0] != 2 || count[1] != 2 {
		t.Fatalf("per-VP counts = %v, want 2 each", count)
	}
	// The hot VP's first two jobs and the cold VP's both, in arrival order.
	if batch[0] != hot[0] || batch[1] != hot[1] || batch[2] != cold[0] || batch[3] != cold[1] {
		t.Fatal("fair drain broke arrival order")
	}
	if q.Len() != 4 {
		t.Fatalf("deferred = %d, want 4", q.Len())
	}

	// Deferred overflow drains in subsequent rounds, preserving order; the
	// drain-until-empty loop terminates.
	var rest []*Job
	for rounds := 0; q.Len() > 0; rounds++ {
		if rounds > 10 {
			t.Fatal("fair drain does not terminate")
		}
		b := q.DrainBatch()
		if len(b) == 0 {
			t.Fatal("empty batch while jobs pending")
		}
		rest = append(rest, b...)
	}
	for i, j := range rest {
		if j != hot[i+2] {
			t.Fatalf("deferred job %d out of order", i)
		}
	}
}

// TestFairDrainOffIsTotal: without a fair share the drain keeps the
// historical everything-at-once behaviour.
func TestFairDrainOffIsTotal(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 5; i++ {
		q.Push(fakeJob(0, 0, hostgpu.EngineH2D))
	}
	if b := q.DrainBatch(); len(b) != 5 || q.Len() != 0 {
		t.Fatalf("unfair drain = %d jobs, %d left", len(b), q.Len())
	}
}
