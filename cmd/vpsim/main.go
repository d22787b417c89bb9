// Command vpsim runs one benchmark application on a fleet of virtual
// platforms against a chosen GPU back end and reports functional results and
// simulated timings — the end-to-end ΣVP stack in one command.
//
// Usage:
//
//	vpsim [-backend emul|sigma] [-vps N] [-scale N] [-iters N] [-trace] <benchmark>
//	vpsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/vp"
)

func main() {
	backend := flag.String("backend", "sigma", "GPU back end: emul (software emulation) or sigma (ΣVP host-GPU service)")
	nVPs := flag.Int("vps", 4, "number of virtual platforms")
	scale := flag.Int("scale", 1, "workload scale")
	iters := flag.Int("iters", 2, "application iterations")
	showTrace := flag.Bool("trace", false, "print the host-GPU engine Gantt chart (sigma back end)")
	showEst := flag.Bool("estimate", false, "print Tegra K1 time/power estimates for every kernel launch (sigma back end)")
	connect := flag.String("connect", "", "connect to a remote sigmavpd service at this TCP address instead of an in-process one")
	list := flag.Bool("list", false, "list available benchmarks")
	flag.Parse()

	if *list {
		for _, name := range kernels.Names() {
			fmt.Println(name)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vpsim [flags] <benchmark>   (vpsim -list for names)")
		os.Exit(2)
	}
	bench, err := kernels.Get(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpsim:", err)
		os.Exit(2)
	}

	switch {
	case *connect != "":
		runRemote(bench, *connect, *nVPs, *scale, *iters)
	case *backend == "emul":
		runEmul(bench, *nVPs, *scale, *iters)
	case *backend == "sigma":
		runSigma(bench, *nVPs, *scale, *iters, *showTrace, *showEst)
	default:
		fmt.Fprintf(os.Stderr, "vpsim: unknown back end %q\n", *backend)
		os.Exit(2)
	}
}

// runRemote connects each VP to a sigmavpd daemon over TCP.
func runRemote(bench *kernels.Benchmark, addr string, nVPs, scale, iters int) {
	fleet := vp.NewFleet(nVPs, arch.ARMVersatile(), func(id int) *cudart.Context {
		client, err := ipc.Dial(addr, id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpsim:", err)
			os.Exit(1)
		}
		return cudart.NewContext(id, cudart.NewRemoteBackend(client))
	})
	app := guestApp(bench, scale, iters)
	// Close each VP's connection the moment its application finishes: the
	// disconnect unregisters the VP from the service's batching logic, so
	// slower VPs keep dispatching.
	err := fleet.Run(func(v *vp.VP) error {
		defer v.Ctx.Close()
		return app(v)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpsim:", err)
		os.Exit(1)
	}
	fmt.Printf("remote ΣVP service at %s: %d VPs completed\n", addr, nVPs)
}

// guestApp is the benchmark's main loop as a guest application.
func guestApp(bench *kernels.Benchmark, scale, iters int) vp.App {
	return func(v *vp.VP) error {
		w := bench.MakeWorkload(scale)
		l := bench.NewLaunch(w)
		l.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			ptr, err := v.Ctx.Malloc(w.BufBytes[decl.Name])
			if err != nil {
				return err
			}
			l.Bindings[decl.Name] = ptr
		}
		for it := 0; it < iters; it++ {
			if bench.CopyEachIteration || it == 0 {
				for name, data := range w.Inputs {
					if err := v.Ctx.MemcpyH2DAsync(0, l.Bindings[name], data); err != nil {
						return err
					}
				}
			}
			if err := v.Ctx.LaunchKernelAsync(0, l); err != nil {
				return err
			}
			if err := v.Ctx.DeviceSynchronize(); err != nil {
				return err
			}
		}
		// Read one output back as a liveness check.
		out := w.OutBufs[0]
		data, err := v.Ctx.MemcpyD2H(l.Bindings[out], w.BufBytes[out])
		if err != nil {
			return err
		}
		fmt.Printf("vp%d: %s ×%d done, %s[0..4] = % x\n", v.ID, bench.Name, iters, out, data[:4])
		return nil
	}
}

func runEmul(bench *kernels.Benchmark, nVPs, scale, iters int) {
	fleet := vp.NewFleet(nVPs, arch.ARMVersatile(), func(id int) *cudart.Context {
		d := emul.New(arch.ARMVersatile(), 1<<30)
		return cudart.NewContext(id, cudart.NewEmulBackend(d))
	})
	if err := fleet.Run(guestApp(bench, scale, iters)); err != nil {
		fmt.Fprintln(os.Stderr, "vpsim:", err)
		os.Exit(1)
	}
	fmt.Printf("emulation back end: %d VPs completed\n", nVPs)
}

func runSigma(bench *kernels.Benchmark, nVPs, scale, iters int, showTrace, showEst bool) {
	opts := core.DefaultOptions()
	opts.Mode = hostgpu.ExecFull
	opts.Trace = showTrace || showEst // estimates are timeline records
	if showEst {
		tegra := arch.TegraK1()
		opts.EstimateTarget = &tegra
	}
	// The in-process service is what sigmavpd serves by default: a farm of one.
	m, err := core.NewMultiService(opts, []arch.GPU{opts.Arch})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpsim:", err)
		os.Exit(1)
	}
	fleet := vp.NewFleet(nVPs, arch.ARMVersatile(), func(id int) *cudart.Context {
		m.RegisterVP(id)
		return cudart.NewContext(id, m.Backend(id))
	})
	if err := fleet.Run(m.WrapApp(guestApp(bench, scale, iters))); err != nil {
		fmt.Fprintln(os.Stderr, "vpsim:", err)
		os.Exit(1)
	}
	m.Flush()
	s := m.Device(0)
	fmt.Printf("ΣVP back end: %d VPs completed, simulated GPU makespan %.3f ms, device energy %.4f J\n",
		nVPs, s.Sync()*1e3, s.SessionEnergy())
	if showTrace {
		fmt.Print(s.Trace().Timeline().Gantt(100))
	}
	if showEst {
		printEstimates(opts.EstimateTarget.Name, s.Trace().Timeline())
	}
}

// printEstimates renders the timeline's estimate records, one per kernel job
// in timeline order.
func printEstimates(target string, tl trace.Timeline) {
	fmt.Printf("Target estimates (%s) from host execution:\n", target)
	fmt.Printf("%-4s %-22s %14s %16s %10s\n", "vp", "kernel", "host (ms)", "target C'' (ms)", "power (W)")
	for _, r := range tl.Records {
		if r.Kind != trace.KindEstimate {
			continue
		}
		_, kernel, _ := strings.Cut(r.Label, " ") // a kernel job's label is "vp<N> <kernel>"
		fmt.Printf("%-4d %-22s %14.4f %16.4f %10.3f\n",
			r.VP, kernel, r.HostSec*1e3, r.TargetSec*1e3, r.TargetW)
	}
}
