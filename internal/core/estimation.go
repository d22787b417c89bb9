package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/estimate"
	"repro/internal/kir"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Estimation is the service's Time/Power Estimation module (paper Fig. 2):
// while kernels actually execute on the host GPU, it derives — from each
// launch's profile — the execution time and power the kernel would have on
// the embedded *target* GPU (Section 4's Profile-Based Execution Analysis).
type Estimation struct {
	Target arch.GPU

	mu      sync.Mutex
	results []KernelEstimate
}

// KernelEstimate is one kernel launch's target-side prediction.
type KernelEstimate struct {
	VP     int
	Kernel string

	HostTimeSec float64 // measured on the host GPU

	TargetTimeSec float64 // C″-based estimate (Eq. 5)
	TargetPowerW  float64 // Eq. 6
}

// NewEstimation returns a module predicting for the given target.
func NewEstimation(target arch.GPU) *Estimation {
	return &Estimation{Target: target}
}

// observe derives the estimate for one completed submitted kernel job. A
// member of a coalesced launch is observed like any other kernel: through its
// own launch and the thread-proportional share of the merged profile the
// coalescer gave it. The access streams are the ones the job was priced at
// (j.Priced), so observing looks nothing up. Jobs without a launch, pricing or
// profile (copies, failed launches) are ignored; kernels whose λ is
// data-dependent and unsampled are skipped rather than guessed.
func (e *Estimation) observe(s *Service, j *sched.Job) {
	if j.Launch == nil || j.Priced == nil || j.Profile == nil || j.Err != nil {
		return
	}
	l := j.Launch
	if l.Prog == nil || l.Sampled() {
		return
	}
	host := s.GPU.Arch
	kl := kir.Launch{NThreads: l.Threads(), Params: l.Params}
	sigmaT, err := l.Prog.Sigma(&e.Target, kl, l.Dyn)
	if err != nil {
		return
	}
	res, err := estimate.Estimate(&estimate.Inputs{
		Host:        &host,
		Target:      &e.Target,
		HostProfile: j.Profile,
		SigmaTarget: sigmaT,
		Shape: profile.LaunchShape{
			Grid: l.Grid, Block: l.Block,
			SharedMemPerBlock: l.SharedMemPerBlock,
			RegsPerThread:     l.RegsPerThread,
		},
		Accesses: j.Priced.Accesses,
	})
	if err != nil {
		return
	}
	e.mu.Lock()
	e.results = append(e.results, KernelEstimate{
		VP:            j.VP,
		Kernel:        l.Kernel.Name,
		HostTimeSec:   j.Profile.TimeSec,
		TargetTimeSec: res.TimeC2,
		TargetPowerW:  res.PowerW,
	})
	e.mu.Unlock()
}

// Results returns a copy of the collected estimates.
func (e *Estimation) Results() []KernelEstimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]KernelEstimate(nil), e.results...)
}

// String renders the collected estimates.
func (e *Estimation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Target estimates (%s) from host execution:\n", e.Target.Name)
	fmt.Fprintf(&b, "%-4s %-22s %14s %16s %10s\n", "vp", "kernel", "host (ms)", "target C'' (ms)", "power (W)")
	for _, r := range e.Results() {
		fmt.Fprintf(&b, "%-4d %-22s %14.4f %16.4f %10.3f\n",
			r.VP, r.Kernel, r.HostTimeSec*1e3, r.TargetTimeSec*1e3, r.TargetPowerW)
	}
	return b.String()
}
