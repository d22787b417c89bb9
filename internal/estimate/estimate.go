package estimate

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/profile"
)

// Inputs gathers everything the estimator consumes.
type Inputs struct {
	Host   *arch.GPU // architecture the profile was measured on
	Target *arch.GPU // architecture being predicted

	// HostProfile is the measured execution on the host GPU: C{K,H} and
	// σ{K,H} come from here.
	HostProfile *profile.Profile

	// SigmaTarget is σ{K,T} from Eq. 1 (recompilation for the target).
	SigmaTarget arch.ClassVec

	// Shape is the launch geometry (grid/block), which decides parallelism.
	Shape profile.LaunchShape

	// Accesses describes the kernel's memory behaviour for the cache model.
	Accesses []cachemodel.Access
}

// Validate reports an error when required inputs are missing.
func (in *Inputs) Validate() error {
	switch {
	case in.Host == nil || in.Target == nil:
		return fmt.Errorf("estimate: missing architecture descriptors")
	case in.HostProfile == nil:
		return fmt.Errorf("estimate: missing host profile")
	case in.Shape.Threads() <= 0:
		return fmt.Errorf("estimate: empty launch shape")
	case in.SigmaTarget.Sum() <= 0:
		return fmt.Errorf("estimate: empty target σ")
	}
	return nil
}

// C is the first-order cycle estimate of Eq. 2:
//
//	C{K,T} = σ{K,T} / (IPC_H × IPC_{H→T}) = σ{K,T} / IPC_T.
//
// It knows nothing about instruction mix, latency or stalls.
func C(target *arch.GPU, sigmaTarget arch.ClassVec) float64 {
	return sigmaTarget.Sum() / target.IPC
}

// CP is the ideal cycle count of Eq. 3, CP{K,A} = Σ_i σ{Ki,A}·τ{i,A},
// normalized by the architecture's thread-level parallelism: the estimator
// assumes the device keeps min(threads, SMs × maxResidentThreads) threads in
// flight and that latency chains pipeline across that population. Unlike the
// device model it applies no wave quantization and no issue-throughput
// bound — those inaccuracies are what C′ inherits from both sides of Eq. 4.
func CP(g *arch.GPU, sigma arch.ClassVec, shape profile.LaunchShape) float64 {
	threads := float64(shape.Threads())
	if threads <= 0 {
		return 0
	}
	capacity := float64(g.SMCount * g.MaxThreadsPerSM)
	if capacity > threads {
		capacity = threads
	}
	serial := sigma.Dot(g.Latency) // Σ σ_i τ_i over the whole kernel
	return serial / capacity
}

// Upsilon is the estimator's Υ[data]{K,A}: the predicted data-dependency
// stall cycles from the probabilistic cache model at architecture A's cache
// geometry. The estimator assumes full occupancy and all SMs active — a
// simplification relative to the device's actual residency.
func Upsilon(g *arch.GPU, accesses []cachemodel.Access) float64 {
	residentWarps := g.MaxThreadsPerSM / g.WarpSize
	return cachemodel.Analyze(g, accesses, residentWarps, g.SMCount).StallCycles
}

// CPrime is the second estimate of Eq. 4:
//
//	C′{K,T} = CP{K,T} + C{K,H} − CP{K,H}.
//
// The host residual C{K,H} − CP{K,H} carries the host's stalls and
// quantization effects over to the target unchanged.
func CPrime(in *Inputs) float64 {
	cpT := CP(in.Target, in.SigmaTarget, in.Shape)
	cpH := CP(in.Host, in.HostProfile.Sigma, in.Shape)
	return cpT + in.HostProfile.Cycles - cpH
}

// CDoublePrime is the third estimate of Eq. 5:
//
//	C″{K,T} = C′{K,T} − Υ[data]{K,H} + Υ[data]{K,T}.
//
// The host's predicted data stalls are replaced by the target's.
func CDoublePrime(in *Inputs) float64 {
	return CPrime(in) - Upsilon(in.Host, in.Accesses) + Upsilon(in.Target, in.Accesses)
}

// Time converts a cycle estimate on architecture g to seconds.
func Time(g *arch.GPU, cycles float64) float64 {
	return cycles / g.ClockHz()
}

// Result bundles the three time estimates for one kernel.
type Result struct {
	Kernel string
	Host   string
	Target string

	CyclesC  float64
	CyclesC1 float64 // C′
	CyclesC2 float64 // C″

	TimeC  float64
	TimeC1 float64
	TimeC2 float64

	PowerW float64 // P{K,T} from Eq. 6, using C″

	SigmaTarget arch.ClassVec // σ{K,T}, the Eq. 1 input the ladder used
}

// Estimate runs the full ladder.
func Estimate(in *Inputs) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	r := &Result{
		Kernel: in.HostProfile.Kernel,
		Host:   in.Host.Name,
		Target: in.Target.Name,

		SigmaTarget: in.SigmaTarget,
	}
	r.CyclesC = C(in.Target, in.SigmaTarget)
	r.CyclesC1 = CPrime(in)
	r.CyclesC2 = CDoublePrime(in)
	if r.CyclesC2 < 0 {
		r.CyclesC2 = r.CyclesC1 // guard against over-correction
	}
	r.TimeC = Time(in.Target, r.CyclesC)
	r.TimeC1 = Time(in.Target, r.CyclesC1)
	r.TimeC2 = Time(in.Target, r.CyclesC2)
	r.PowerW = Power(in.Target, in.SigmaTarget, r.CyclesC2)
	return r, nil
}

// Power is the power estimate of Eq. 6:
//
//	P{K,T} = P[static]_T + Σ_i σ{Ki,T}/ET{K,T} × RP_Component{i,T},
//
// with ET the estimated execution time from the C″ cycles. RP components are
// expressed as energy-per-instruction, so σ_i/ET × E_i is the class's
// average power draw.
func Power(target *arch.GPU, sigmaTarget arch.ClassVec, cyclesC2 float64) float64 {
	et := Time(target, cyclesC2)
	if et <= 0 {
		return target.StaticPowerW
	}
	dynamic := sigmaTarget.Dot(target.EnergyPerInstr) / et
	return target.StaticPowerW + dynamic
}

// String renders the estimation ladder for one kernel.
func (r *Result) String() string {
	return fmt.Sprintf(
		"estimates for %s on %s (profile from %s):\n"+
			"  C   (Eq. 2): %12.0f cycles  %10.6f s\n"+
			"  C'  (Eq. 4): %12.0f cycles  %10.6f s\n"+
			"  C'' (Eq. 5): %12.0f cycles  %10.6f s\n"+
			"  P   (Eq. 6): %12.3f W\n",
		r.Kernel, r.Target, r.Host,
		r.CyclesC, r.TimeC, r.CyclesC1, r.TimeC1, r.CyclesC2, r.TimeC2, r.PowerW)
}
