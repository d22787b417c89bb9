// Powertiming: the paper's Profile-Based Execution Analysis (Section 4)
// step by step. A kernel is compiled for both architectures (σ derivation,
// Eq. 1 / Fig. 8), executed on the host GPU to collect a profile, and the
// three timing estimates C, C′, C″ (Eqs. 2–5) plus the power estimate P
// (Eq. 6) are derived for the embedded target — then compared against the
// target device model's "measured" values.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/profile"
)

func main() {
	bench, err := kernels.Get("BlackScholes")
	if err != nil {
		log.Fatal(err)
	}
	host := arch.Quadro4000()
	target := arch.TegraK1()
	w := bench.MakeWorkload(8)

	// Execute on the host GPU to gather the profile, and derive the target's
	// σ and estimates from it (hostgpu.Launch.Estimate).
	l, priced, hostProf := measure(host, bench, w)
	res, err := l.Estimate(&host, &target, priced, hostProf)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 — compile for both architectures: σ{K,H} and σ{K,T} come from
	// the kernel's block-level IR (Eq. 1).
	fmt.Printf("step 1 — recompilation (Eq. 1):\n")
	fmt.Printf("  σ{K,H} = %.0f instructions on %s\n", hostProf.Sigma.Sum(), host.Name)
	fmt.Printf("  σ{K,T} = %.0f instructions on %s\n\n", res.SigmaTarget.Sum(), target.Name)

	// Step 2 — the host execution profile.
	fmt.Printf("step 2 — host execution profile:\n%s\n", hostProf)

	// Steps 3–5 — the estimates, against the same launch on the target
	// device model.
	_, _, targetProf := measure(target, bench, w)

	fmt.Printf("steps 3–5 — estimates for %s vs its measured values:\n", target.Name)
	fmt.Printf("  measured time     %12.6f s\n", targetProf.TimeSec)
	fmt.Printf("  C   (Eq. 2)       %12.6f s  (%.2f× measured)\n", res.TimeC, res.TimeC/targetProf.TimeSec)
	fmt.Printf("  C'  (Eq. 4)       %12.6f s  (%.2f×)\n", res.TimeC1, res.TimeC1/targetProf.TimeSec)
	fmt.Printf("  C'' (Eq. 5)       %12.6f s  (%.2f×)\n", res.TimeC2, res.TimeC2/targetProf.TimeSec)
	fmt.Printf("  measured power    %12.3f W\n", targetProf.PowerW())
	fmt.Printf("  P   (Eq. 6)       %12.3f W  (%+.1f%%)\n", res.PowerW,
		100*(res.PowerW-targetProf.PowerW())/targetProf.PowerW())
}

// measure runs the workload once on a timing-only device model of g.
func measure(g arch.GPU, bench *kernels.Benchmark, w *kernels.Workload) (*hostgpu.Launch, *hostgpu.Priced, *profile.Profile) {
	dev := hostgpu.NewTimingOnly(g, 1<<32)
	l, priced, prof, err := bench.Measure(dev, w)
	if err != nil {
		log.Fatal(err)
	}
	return l, priced, prof
}
