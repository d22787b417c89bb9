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
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kir"
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

	dev := hostgpu.NewTimingOnly(host, 1<<32)
	l, priced, hostProf, err := bench.Measure(dev, w)
	if err != nil {
		return err
	}
	res, err := l.Estimate(&host, &target, priced, hostProf)
	if err != nil {
		return err
	}
	fmt.Print(hostProf.String())
	if showBlocks {
		rep, err := bench.Prog.BlockReport(&target, kir.Launch{NThreads: l.Threads(), Params: l.Params}, l.Dyn)
		if err != nil {
			return err
		}
		fmt.Println(rep)
	}

	fmt.Printf("\nProfile-based estimates for %s:\n", target.Name)
	fmt.Printf("  σ{K,T}      %.0f instructions (Eq. 1)\n", res.SigmaTarget.Sum())
	fmt.Printf("  C   (Eq. 2) %12.6f s\n", res.TimeC)
	fmt.Printf("  C'  (Eq. 4) %12.6f s\n", res.TimeC1)
	fmt.Printf("  C'' (Eq. 5) %12.6f s\n", res.TimeC2)
	fmt.Printf("  P   (Eq. 6) %12.3f W\n", res.PowerW)
	return nil
}
