// Multigpu: the plural in the paper's title — "ΣVP multiplexes the host
// GPUs". Eight VPs are partitioned across the machine's two host GPUs
// (Quadro 4000 and Grid K520) by the least-loaded placement policy; each
// device runs its own Re-scheduler, so interleaving and coalescing happen
// among the VPs sharing a device, and the session makespan is the slower
// device's. Afterwards the aggregated snapshot shows each device's counters
// under a "gpu<i>." namespace and the merged trace shows the whole farm's
// engine utilization.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/kernels"
	"repro/internal/vp"
)

func app(v *vp.VP) error {
	bench, err := kernels.Get("BlackScholes")
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
	for name, data := range w.Inputs {
		if err := v.Ctx.MemcpyH2D(l.Bindings[name], data); err != nil {
			return err
		}
	}
	for it := 0; it < 4; it++ {
		if err := v.Ctx.LaunchKernelAsync(0, l); err != nil {
			return err
		}
	}
	if err := v.Ctx.DeviceSynchronize(); err != nil {
		return err
	}
	if _, err := v.Ctx.MemcpyD2H(l.Bindings["call"], w.BufBytes["call"]); err != nil {
		return err
	}
	fmt.Printf("  vp%d done at simulated t=%.3f ms\n", v.ID, v.Clock()*1e3)
	return nil
}

func main() {
	opts := core.DefaultOptions()
	opts.Trace = true
	m, err := core.NewMultiServicePlaced(opts, arch.HostGPUs(), core.PlaceLeastLoaded)
	if err != nil {
		log.Fatal(err)
	}
	fleet := vp.NewFleet(8, arch.ARMVersatile(), func(id int) *cudart.Context {
		m.RegisterVP(id)
		return cudart.NewContext(id, m.Backend(id))
	})
	err = fleet.Run(m.WrapApp(app))
	m.Flush()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < m.Devices(); i++ {
		fmt.Printf("device %d (%s): busy until %.3f ms\n",
			i, m.Device(i).GPU.Arch.Name, m.Device(i).Sync()*1e3)
	}
	fmt.Printf("session makespan: %.3f ms (%s placement)\n", m.Sync()*1e3, m.Placement())

	// The aggregated snapshot namespaces each device's counters.
	snap := m.Snapshot()
	for i := 0; i < m.Devices(); i++ {
		fmt.Printf("gpu%d.core.jobs_submitted = %d\n",
			i, snap.CounterValue(fmt.Sprintf("gpu%d.core.jobs_submitted", i)))
	}
	fmt.Printf("core.jobs_submitted (all devices) = %d\n", snap.CounterValue("core.jobs_submitted"))

	// The merged trace labels every engine row "gpu<i>/<engine>".
	if tl := m.MergedTrace(); tl != nil {
		fmt.Println("farm utilization:")
		u := tl.Utilization()
		for _, eng := range []string{"gpu0/compute", "gpu1/compute"} {
			fmt.Printf("  %-12s %.1f%%\n", eng, u[eng]*100)
		}
	}
}
