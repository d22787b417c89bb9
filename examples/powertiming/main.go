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
	"repro/internal/cachemodel"
	"repro/internal/devmem"
	"repro/internal/estimate"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kir"
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

	// Step 1 — compile for both architectures: derive σ{K,H} and σ{K,T}
	// from the kernel's block-level IR (Eq. 1).
	kl := kir.Launch{NThreads: w.Threads(), Params: w.Params}
	sigmaH, err := bench.Prog.Sigma(&host, kl, nil)
	if err != nil {
		log.Fatal(err)
	}
	sigmaT, err := bench.Prog.Sigma(&target, kl, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1 — recompilation (Eq. 1):\n")
	fmt.Printf("  σ{K,H} = %.0f instructions on %s\n", sigmaH.Sum(), host.Name)
	fmt.Printf("  σ{K,T} = %.0f instructions on %s\n\n", sigmaT.Sum(), target.Name)

	// Step 2 — execute on the host GPU and gather the profile.
	hostProf, accesses := measure(&host, bench, w)
	fmt.Printf("step 2 — host execution profile:\n%s\n", hostProf)

	// Steps 3–5 — estimate target time and power.
	res, err := estimate.Estimate(&estimate.Inputs{
		Host:        &host,
		Target:      &target,
		HostProfile: hostProf,
		SigmaTarget: sigmaT,
		Shape: profile.LaunchShape{
			Grid: w.Grid, Block: w.Block,
			SharedMemPerBlock: w.SharedMemPerBlock, RegsPerThread: w.RegsPerThread,
		},
		Accesses: accesses,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth: the same launch on the target device model.
	targetProf, _ := measure(&target, bench, w)

	fmt.Printf("steps 3–5 — estimates for %s vs its measured values:\n", target.Name)
	fmt.Printf("  measured time     %12.6f s\n", targetProf.TimeSec)
	fmt.Printf("  C   (Eq. 2)       %12.6f s  (%.2f× measured)\n", res.TimeC, res.TimeC/targetProf.TimeSec)
	fmt.Printf("  C'  (Eq. 4)       %12.6f s  (%.2f×)\n", res.TimeC1, res.TimeC1/targetProf.TimeSec)
	fmt.Printf("  C'' (Eq. 5)       %12.6f s  (%.2f×)\n", res.TimeC2, res.TimeC2/targetProf.TimeSec)
	fmt.Printf("  measured power    %12.3f W\n", targetProf.PowerW())
	fmt.Printf("  P   (Eq. 6)       %12.3f W  (%+.1f%%)\n", res.PowerW,
		100*(res.PowerW-targetProf.PowerW())/targetProf.PowerW())
}

func measure(g *arch.GPU, bench *kernels.Benchmark, w *kernels.Workload) (*profile.Profile, []cachemodel.Access) {
	dev := hostgpu.New(*g, 1<<32)
	dev.Mode = hostgpu.ExecTimingOnly
	l := bench.NewLaunch(w)
	l.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		ptr, err := dev.Mem.Alloc(w.BufBytes[decl.Name])
		if err != nil {
			log.Fatal(err)
		}
		l.Bindings[decl.Name] = ptr
		if in, ok := w.Inputs[decl.Name]; ok {
			if err := dev.Mem.Write(ptr, 0, in); err != nil {
				log.Fatal(err)
			}
		}
	}
	priced, err := dev.Price(l)
	if err != nil {
		log.Fatal(err)
	}
	prof, _, err := dev.LaunchPriced(0, l, &priced)
	if err != nil {
		log.Fatal(err)
	}
	return prof, priced.Accesses
}
