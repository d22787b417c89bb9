package vp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/cpumodel"
	"repro/internal/cudart"
)

// App is a guest application.
type App func(v *VP) error

// VP is one virtual platform instance.
type VP struct {
	ID  int
	CPU arch.CPU
	Ctx *cudart.Context

	mu    sync.Mutex
	clock float64
}

// New builds a VP over a cudart context. The context's synchronous waits
// advance the VP's local clock (loosely-timed co-simulation).
func New(id int, cpu arch.CPU, ctx *cudart.Context) *VP {
	v := &VP{ID: id, CPU: cpu, Ctx: ctx}
	if ctx != nil {
		ctx.AttachClock(v)
	}
	return v
}

// Clock returns the VP's local simulated time.
func (v *VP) Clock() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.clock
}

// Advance adds guest-CPU seconds to the local clock.
func (v *VP) Advance(seconds float64) {
	if seconds <= 0 {
		return
	}
	v.mu.Lock()
	v.clock += seconds
	v.mu.Unlock()
}

// RunCPU models the guest executing instr canonical instructions of scalar
// code (binary-translated): it advances the local clock accordingly.
func (v *VP) RunCPU(instr float64) {
	v.Advance(cpumodel.ScalarTime(&v.CPU, instr))
}

// SyncTo advances the local clock to at least t (used after a synchronous
// GPU operation completes at simulated host time t — loosely-timed TLM
// synchronization).
func (v *VP) SyncTo(t float64) {
	v.mu.Lock()
	if t > v.clock {
		v.clock = t
	}
	v.mu.Unlock()
}

// Run executes a guest application to completion.
func (v *VP) Run(app App) error {
	if app == nil {
		return fmt.Errorf("vp%d: nil application", v.ID)
	}
	if err := app(v); err != nil {
		return fmt.Errorf("vp%d: %w", v.ID, err)
	}
	return v.Ctx.DeviceSynchronize()
}

// Fleet is a set of VPs running concurrently — the multi-VP simulation
// sessions of the paper's experiments.
type Fleet struct {
	VPs []*VP
}

// NewFleet builds n VPs using the given context factory.
func NewFleet(n int, cpu arch.CPU, mkCtx func(id int) *cudart.Context) *Fleet {
	f := &Fleet{}
	for i := 0; i < n; i++ {
		f.VPs = append(f.VPs, New(i, cpu, mkCtx(i)))
	}
	return f
}

// Run executes the application on every VP concurrently. All failures are
// reported, aggregated with errors.Join — a two-VP failure names both VPs,
// not just the first.
func (f *Fleet) Run(app App) error {
	errs := make([]error, len(f.VPs))
	var wg sync.WaitGroup
	for i, v := range f.VPs {
		wg.Add(1)
		go func(i int, v *VP) {
			defer wg.Done()
			errs[i] = v.Run(app)
		}(i, v)
	}
	wg.Wait()
	return errors.Join(errs...)
}
