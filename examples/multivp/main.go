// Multivp: eight virtual platforms with heterogeneous GPU applications share
// one host GPU through the full ΣVP service — IPC batching via VP Control,
// the Re-scheduler's Kernel Interleaving, and Kernel Coalescing of the VPs
// that happen to invoke identical kernels. The engine Gantt chart at the end
// shows the copy and compute engines overlapping (paper Fig. 3b).
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/vp"
)

// mixedApp runs the benchmark assigned to this VP: VPs 0–3 run BlackScholes
// (identical kernels → coalesced), VPs 4–5 run matrixMul, VPs 6–7 run
// Mandelbrot.
func mixedApp(v *vp.VP) error {
	var name string
	switch {
	case v.ID < 4:
		name = "BlackScholes"
	case v.ID < 6:
		name = "matrixMul"
	default:
		name = "Mandelbrot"
	}
	bench, err := kernels.Get(name)
	if err != nil {
		return err
	}
	w := bench.MakeWorkload(2)
	l := bench.NewLaunch(w)
	l.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		ptr, err := v.Ctx.Malloc(w.BufBytes[decl.Name])
		if err != nil {
			return err
		}
		l.Bindings[decl.Name] = ptr
	}
	for it := 0; it < 3; it++ {
		for bufName, data := range w.Inputs {
			if err := v.Ctx.MemcpyH2DAsync(0, l.Bindings[bufName], data); err != nil {
				return err
			}
		}
		if err := v.Ctx.LaunchKernelAsync(0, l); err != nil {
			return err
		}
		if err := v.Ctx.DeviceSynchronize(); err != nil {
			return err
		}
	}
	out := w.OutBufs[0]
	if _, err := v.Ctx.MemcpyD2H(l.Bindings[out], w.BufBytes[out]); err != nil {
		return err
	}
	fmt.Printf("  vp%d finished %s\n", v.ID, name)
	return nil
}

func run(policy sched.Policy, coalesce bool) float64 {
	opts := core.DefaultOptions()
	opts.Policy = policy
	opts.Coalesce = coalesce
	opts.Trace = true
	svc, err := core.NewMultiService(opts, []arch.GPU{opts.Arch})
	if err != nil {
		log.Fatal(err)
	}
	fleet := vp.NewFleet(8, arch.ARMVersatile(), func(id int) *cudart.Context {
		svc.RegisterVP(id)
		return cudart.NewContext(id, svc.Backend(id))
	})
	if err := fleet.Run(svc.WrapApp(mixedApp)); err != nil {
		log.Fatal(err)
	}
	svc.Flush()
	if policy == sched.PolicyInterleave {
		fmt.Println("\nEngine timeline (digits are VP streams):")
		fmt.Print(svc.Device(0).Trace().Timeline().Gantt(100))
	}
	return svc.Sync()
}

func main() {
	fmt.Println("Baseline (serialized dispatch, no optimizations):")
	base := run(sched.PolicyFIFO, false)
	fmt.Printf("  simulated makespan: %.3f ms\n\n", base*1e3)

	fmt.Println("ΣVP with Kernel Interleaving + Kernel Coalescing:")
	opt := run(sched.PolicyInterleave, true)
	fmt.Printf("  simulated makespan: %.3f ms\n", opt*1e3)
	fmt.Printf("\noptimizations speedup: %.2f×\n", base/opt)
}
