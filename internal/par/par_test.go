package par

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestForEachGoroutineBudget: with one worker or one item the loop runs on the
// caller and starts no goroutine; otherwise the caller is one of the workers,
// so at most workers-1 goroutines start and at most workers calls of fn are in
// flight.
func TestForEachGoroutineBudget(t *testing.T) {
	for _, tc := range []struct{ n, workers, extra int }{
		{8, 1, 0}, {1, 8, 0}, {8, 0, 0}, {8, 2, 1}, {3, 8, 2}, {64, 4, 3},
	} {
		before := runtime.NumGoroutine()
		var mu sync.Mutex
		var inFlight, peak, goroutines int
		visited := make([]int, tc.n)
		err := ForEach(tc.n, tc.workers, func(i int) error {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			goroutines = max(goroutines, runtime.NumGoroutine()-before)
			visited[i]++
			mu.Unlock()
			runtime.Gosched() // let the other workers in while this call is in flight
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Errorf("n %d workers %d: index %d visited %d times", tc.n, tc.workers, i, v)
			}
		}
		if goroutines > tc.extra {
			t.Errorf("n %d workers %d: %d goroutines started, want ≤ %d", tc.n, tc.workers, goroutines, tc.extra)
		}
		if peak > tc.extra+1 {
			t.Errorf("n %d workers %d: %d calls in flight, want ≤ %d", tc.n, tc.workers, peak, tc.extra+1)
		}
	}
}

// TestForEachLowestIndexError: every index still runs when one fails in the
// parallel loop, and the error is the lowest-index one — the serial loop's.
func TestForEachLowestIndexError(t *testing.T) {
	errs := []error{3: errors.New("three"), 5: errors.New("five"), 7: nil}
	for _, workers := range []int{1, 2, 8} {
		if err := ForEach(len(errs), workers, func(i int) error { return errs[i] }); err != errs[3] {
			t.Errorf("workers %d: got %v, want %v", workers, err, errs[3])
		}
	}
}
