// Package par is the one fan-out of independent, index-addressed work over a
// bounded set of goroutines: the experiment harness runs a study's cells with
// it, the coalescer the pieces of a merged launch. Results are those of the
// serial loop for any worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0) … fn(n-1) on min(workers, n) goroutines, the caller's
// among them, and returns the lowest-index error — the same error the serial
// loop would surface. fn must write its result into a caller-owned slot for
// index i; slots make the result ordering deterministic regardless of
// completion order. With one worker, or one item, the loop runs on the caller
// and no goroutine starts.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	take := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			take()
		}()
	}
	take()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
