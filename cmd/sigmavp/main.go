// Command sigmavp regenerates the paper's evaluation artifacts (Table 1 and
// Figs. 9–13) from the simulated substrates.
//
// Usage:
//
//	sigmavp [-scale N] [-workers N] table1|fig3|fig9a|fig9b|fig10a|fig10b|fig11|fig12|fig13|sweep|scaling|multigpu|faults|overload|migrate|checkpoint|all
//
// "multigpu" runs the multi-GPU serving study: the same -vps VP fleet with a
// mixed workload served by 1, 2, and 4 host GPUs through a core.MultiService,
// reporting makespan, speedup, and per-device compute utilization.
//
// "faults" runs the fault-injection drill: a fleet of VPs exercising the TCP
// IPC stack while the client transport injects seeded drop/delay/corrupt/
// disconnect faults (-faults configures the schedule). It is a robustness
// check, not a paper artifact, so "all" does not include it.
//
// "overload" runs the admission-control drill: a 2-device farm over TCP IPC
// with an aggressor VP oversubscribing its quota -oversub× while a victim VP
// runs a deterministic workload; the drill verifies bounded queues, typed
// retryable sheds with backoff hints, and byte-identical victim artifacts
// versus an uncontended run. Like "faults", it is excluded from "all".
//
// "migrate" runs the live-migration drill: a -vps VP fleet with the mixed
// workload on a 4-device farm, force-migrated between devices at iteration
// barriers (including a victim moved onto a device at -oversub×
// oversubscription), split across a checkpoint→restore into a fresh farm,
// and required to produce byte-identical D2H outputs versus an untouched
// run. "checkpoint" runs just the save→restore leg and reports the encoded
// image size. Both are excluded from "all".
//
// -workers sizes the experiment-harness worker pool (0 = one worker per CPU,
// 1 = serial). Results are identical for every value; only wall-clock changes.
//
// -metrics FILE writes the harness observability snapshot (counters, gauges,
// histograms; see internal/metrics) as JSON after the selected experiments
// finish. The snapshot is byte-identical for any -workers value.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, for inspection with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 8, "workload scale for fig11/fig12/fig13/sweep/scaling")
	app := flag.String("app", "BlackScholes", "application for the scaling study")
	vps := flag.Int("vps", 16, "VP fleet size for the multigpu study")
	pipeline := flag.Bool("pipeline", true, "per-device execution pipelines for the multigpu study (off = synchronous dispatch; simulated results are identical, only the wall-clock columns move)")
	workers := flag.Int("workers", 0, "experiment-harness worker pool size (0 = NumCPU, 1 = serial)")
	faults := flag.String("faults", "seed=1,drop=0.05,delay=0.2,maxdelay=5ms,corrupt=0.02,disconnect=0.02",
		"fault-injection spec for the faults drill (key=value pairs; see internal/ipc.ParseFaults)")
	oversub := flag.Int("oversub", 4, "oversubscription factor for the overload and migrate drills (multiple of the per-VP job quota)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	metricsFile := flag.String("metrics", "", "write the harness metrics snapshot (JSON) to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sigmavp [-scale N] [-workers N] [-faults SPEC] [-metrics FILE] [-cpuprofile FILE] [-memprofile FILE] table1|fig3|fig9a|fig9b|fig10a|fig10b|fig11|fig12|fig13|sweep|scaling|multigpu|faults|overload|migrate|checkpoint|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	experiments.SetWorkers(*workers)
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	runners := map[string]func() (fmt.Stringer, error){
		"table1":  func() (fmt.Stringer, error) { return experiments.Table1() },
		"fig3":    func() (fmt.Stringer, error) { return experiments.Fig3() },
		"fig9a":   func() (fmt.Stringer, error) { return experiments.Fig9a() },
		"fig9b":   func() (fmt.Stringer, error) { return experiments.Fig9b() },
		"fig10a":  func() (fmt.Stringer, error) { return experiments.Fig10a() },
		"fig10b":  func() (fmt.Stringer, error) { return experiments.Fig10b() },
		"fig11":   func() (fmt.Stringer, error) { return experiments.Fig11(*scale) },
		"fig12":   func() (fmt.Stringer, error) { return experiments.Fig12(*scale) },
		"fig13":   func() (fmt.Stringer, error) { return experiments.Fig13(*scale) },
		"sweep":   func() (fmt.Stringer, error) { return experiments.EstimationSweep(*scale) },
		"scaling": func() (fmt.Stringer, error) { return experiments.Scaling(*app, *scale) },
		"multigpu": func() (fmt.Stringer, error) {
			return experiments.MultiGPUScalingOpt(*vps, *scale, []int{1, 2, 4}, *pipeline)
		},
		"faults": func() (fmt.Stringer, error) {
			return experiments.FaultDrill(*faults, 4, 4)
		},
		"overload": func() (fmt.Stringer, error) {
			return experiments.OverloadDrill(*oversub, 4)
		},
		"migrate": func() (fmt.Stringer, error) {
			return experiments.MigrationDrill(*vps, *scale, *oversub)
		},
		"checkpoint": func() (fmt.Stringer, error) {
			return experiments.CheckpointDrill(*vps, *scale)
		},
	}
	// "faults", "overload", "migrate", and "checkpoint" are deliberately
	// absent: they are robustness drills, not paper artifacts, and must not
	// perturb `sigmavp all` regeneration output.
	order := []string{"table1", "fig3", "fig9a", "fig9b", "fig10a", "fig10b", "fig11", "fig12", "fig13", "sweep", "scaling", "multigpu"}

	what := flag.Arg(0)
	var todo []string
	if what == "all" {
		todo = order
	} else if _, ok := runners[what]; ok {
		todo = []string{what}
	} else {
		fmt.Fprintf(os.Stderr, "sigmavp: unknown experiment %q\n", what)
		flag.Usage()
		os.Exit(2)
	}

	// fail wraps the os.Exit(1) path so profiles are flushed even when an
	// experiment errors (os.Exit skips deferred calls).
	finishProfiles := startProfiles(*cpuprofile, *memprofile)
	fail := func(format string, args ...any) {
		finishProfiles()
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}

	for _, name := range todo {
		res, err := runners[name]()
		if err != nil {
			fail("sigmavp: %s: %v\n", name, err)
		}
		fmt.Println(res.String())
	}
	if *metricsFile != "" {
		data, err := experiments.Metrics().Snapshot().JSON()
		if err != nil {
			fail("sigmavp: -metrics: %v\n", err)
		}
		if err := os.WriteFile(*metricsFile, append(data, '\n'), 0o644); err != nil {
			fail("sigmavp: -metrics: %v\n", err)
		}
	}
	finishProfiles()
}

// startProfiles begins CPU profiling and returns a function that stops it and
// writes the allocation profile. The returned function is safe to call more
// than once; only the first call has an effect.
func startProfiles(cpuFile, memFile string) func() {
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigmavp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sigmavp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != "" {
			pprof.StopCPUProfile()
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sigmavp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sigmavp: -memprofile: %v\n", err)
			}
		}
	}
}
