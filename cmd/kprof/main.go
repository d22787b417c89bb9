// Command kprof profiles a benchmark kernel on a host GPU model and prints
// the paper's Profile-Based Execution Analysis for the embedded target: the
// measured host profile, the C/C′/C″ timing ladder (Eqs. 2–5) and the power
// estimate (Eq. 6) for the Tegra K1.
//
// Usage:
//
//	kprof [-host quadro|k520] [-scale N] <benchmark>
package main

import (
	"flag"
	"fmt"
	"os"

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
	hostName := flag.String("host", "quadro", "host GPU: quadro or k520")
	scale := flag.Int("scale", 8, "workload scale")
	blocks := flag.Bool("blocks", false, "print the block-level σ derivation (paper Fig. 8)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kprof [-host quadro|k520] [-scale N] [-blocks] <benchmark>")
		os.Exit(2)
	}
	showBlocks = *blocks
	var host arch.GPU
	switch *hostName {
	case "quadro":
		host = arch.Quadro4000()
	case "k520":
		host = arch.GridK520()
	default:
		fmt.Fprintf(os.Stderr, "kprof: unknown host %q\n", *hostName)
		os.Exit(2)
	}
	if err := run(host, flag.Arg(0), *scale); err != nil {
		fmt.Fprintln(os.Stderr, "kprof:", err)
		os.Exit(1)
	}
}

var showBlocks bool

func run(host arch.GPU, name string, scale int) error {
	bench, err := kernels.Get(name)
	if err != nil {
		return err
	}
	target := arch.TegraK1()
	w := bench.MakeWorkload(scale)

	hostProf, accesses, err := measure(&host, bench, w)
	if err != nil {
		return err
	}
	fmt.Print(hostProf.String())

	kl := kir.Launch{NThreads: w.Threads(), Params: w.Params}
	dyn, err := bench.SampleDyn(w)
	if err != nil {
		return err
	}
	sigmaT, err := bench.Prog.Sigma(&target, kl, dyn)
	if err != nil {
		return err
	}
	if showBlocks {
		rep, err := bench.Prog.BlockReport(&target, kl, dyn)
		if err != nil {
			return err
		}
		fmt.Println(rep)
	}
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
		return err
	}

	fmt.Printf("\nProfile-based estimates for %s:\n", target.Name)
	fmt.Printf("  σ{K,T}      %.0f instructions (Eq. 1)\n", sigmaT.Sum())
	fmt.Printf("  C   (Eq. 2) %12.6f s\n", res.TimeC)
	fmt.Printf("  C'  (Eq. 4) %12.6f s\n", res.TimeC1)
	fmt.Printf("  C'' (Eq. 5) %12.6f s\n", res.TimeC2)
	fmt.Printf("  P   (Eq. 6) %12.3f W\n", res.PowerW)
	return nil
}

// measure provisions the workload on a device model of g, launches it once,
// and returns the profile plus the kernel's access streams.
func measure(g *arch.GPU, bench *kernels.Benchmark, w *kernels.Workload) (*profile.Profile, []cachemodel.Access, error) {
	dev := hostgpu.New(*g, 1<<32)
	dev.Mode = hostgpu.ExecTimingOnly
	l := bench.NewLaunch(w)
	l.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		ptr, err := dev.Mem.Alloc(w.BufBytes[decl.Name])
		if err != nil {
			return nil, nil, err
		}
		l.Bindings[decl.Name] = ptr
		if in, ok := w.Inputs[decl.Name]; ok {
			if err := dev.Mem.Write(ptr, 0, in); err != nil {
				return nil, nil, err
			}
		}
	}
	priced, err := dev.Price(l)
	if err != nil {
		return nil, nil, err
	}
	prof, _, err := dev.LaunchPriced(0, l, &priced)
	return prof, priced.Accesses, err
}
