package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hostgpu"
	"repro/internal/sched"
)

// TestDisconnectRacesPipelinedBatch pins the disconnect/drain ordering with
// the execution pipeline on: a VP that vanishes while another batch is still
// in flight in the executor must never leave a WaitJob caller hung. Queued
// jobs of the departed VP resolve with ErrCancelled (or ran to completion if
// the race dispatched them first); either way every waiter wakes.
func TestDisconnectRacesPipelinedBatch(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		opts := DefaultOptions()
		s := newService(opts)
		s.RegisterVP(0)
		s.RegisterVP(1) // registered and never parked: holds dispatch back
		p, err := s.GPU.Mem.Alloc(1 << 12)
		if err != nil {
			t.Fatal(err)
		}

		// Keep the device's runner busy so the disconnect overlaps an
		// in-flight batch, not an idle pipeline.
		slow := sched.NewCustom(2, 2*streamsPerVP, hostgpu.EngineCompute, "slow",
			func(j *sched.Job, g *hostgpu.GPU) error {
				time.Sleep(time.Millisecond)
				return nil
			})
		s.DispatchRaw([]*sched.Job{slow})

		jobs := make([]*sched.Job, 4)
		waits := make(chan error, len(jobs))
		for i := range jobs {
			j := sched.NewH2D(0, 0, p, 0, make([]byte, 64))
			jobs[i] = j
			s.Submit(j)
			go func(j *sched.Job) { waits <- s.WaitJob(0, j) }(j)
		}
		go s.DisconnectVP(0)

		for range jobs {
			select {
			case err := <-waits:
				if err != nil && !errors.Is(err, ErrCancelled) {
					t.Fatalf("iter %d: WaitJob err = %v", iter, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("iter %d: WaitJob hung after DisconnectVP", iter)
			}
		}
		// Every job must have resolved, not merely been dropped from the queue.
		for i, j := range jobs {
			if !j.Done() {
				t.Fatalf("iter %d: job %d not done", iter, i)
			}
		}
	}
}
