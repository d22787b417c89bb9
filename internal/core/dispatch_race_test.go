package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hostgpu"
	"repro/internal/sched"
)

// TestConcurrentDispatchPreservesChainOrder is the -race regression for the
// concurrent-dispatch race: two goroutines could both observe the
// all-stopped predicate, drain separate batches, and run dispatch
// concurrently, interleaving Run calls and breaking per-(VP,stream)
// ordering. With dispatch serialized, the executed order within every
// (VP,stream) chain must match submission order no matter how many
// goroutines submit at once.
func TestConcurrentDispatchPreservesChainOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.Coalesce = false
	s := newService(opts)
	// No VPs registered: every Submit may dispatch immediately, which is
	// exactly the window the old code raced in.

	const (
		chains    = 8
		jobsPerVP = 40
		totalJobs = chains * jobsPerVP
	)
	type rec struct{ vp, seq int }
	var mu sync.Mutex
	order := make([]rec, 0, totalJobs)

	jobs := make([]*sched.Job, 0, totalJobs)
	var jobsMu sync.Mutex
	var wg sync.WaitGroup
	for vp := 0; vp < chains; vp++ {
		wg.Add(1)
		go func(vp int) {
			defer wg.Done()
			for i := 0; i < jobsPerVP; i++ {
				i := i
				j := sched.NewCustom(vp, vp, hostgpu.EngineCompute,
					fmt.Sprintf("vp%d#%d", vp, i),
					func(j *sched.Job, g *hostgpu.GPU) error {
						mu.Lock()
						order = append(order, rec{vp: j.VP, seq: i})
						mu.Unlock()
						return nil
					})
				jobsMu.Lock()
				jobs = append(jobs, j)
				jobsMu.Unlock()
				s.Submit(j)
			}
		}(vp)
	}
	wg.Wait()
	s.Flush()
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	if len(order) != totalJobs {
		t.Fatalf("executed %d of %d jobs", len(order), totalJobs)
	}
	next := make([]int, chains)
	for i, r := range order {
		if r.seq != next[r.vp] {
			t.Fatalf("chain vp%d ran job %d before job %d (position %d): concurrent dispatch interleaved batches",
				r.vp, r.seq, next[r.vp], i)
		}
		next[r.vp]++
	}
}
