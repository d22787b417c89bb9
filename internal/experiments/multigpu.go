package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
)

// MultiGPUPoint is one fleet size in the multi-GPU scaling study.
type MultiGPUPoint struct {
	Devices     int
	MakespanSec float64
	// Speedup is makespan(1 device) / makespan(Devices).
	Speedup float64
	// Utilization is each device's compute-engine busy fraction of the
	// makespan — the load-balance check: a straggler device shows up as a
	// spread between min and max.
	Utilization []float64

	// WallClockSec is the host time the point took to simulate; WallSpeedup
	// is wall(1 device) / wall(Devices). With pipelined executors and enough
	// cores, wall speedup tracks the simulated Speedup; without them it stays
	// near 1× no matter how many devices the farm has. Host timings are
	// excluded from the JSON artifact, which must stay deterministic.
	WallClockSec float64 `json:"-"`
	WallSpeedup  float64 `json:"-"`
}

// MultiGPUResult is the multi-GPU serving study: the same VP fleet and mixed
// workload served by 1, 2, and 4 host GPUs through a MultiService. The paper
// multiplexes "the host GPUs" (plural) among VPs; this is the scaling curve
// that premise buys.
type MultiGPUResult struct {
	VPs       int
	Scale     int
	Apps      []string
	Placement string
	Points    []MultiGPUPoint
}

// MultiGPUScaling serves nVPs VPs with a mixed workload on each fleet size in
// devCounts and reports makespan, speedup over one device, and per-device
// utilization. Deterministic: VPs register in index order, placement is
// round-robin, and batches are assembled and dispatched in VP order.
func MultiGPUScaling(nVPs, scale int, devCounts []int) (*MultiGPUResult, error) {
	if nVPs < 1 {
		nVPs = 1
	}
	if scale < 1 {
		scale = 1
	}
	res := &MultiGPUResult{
		VPs:       nVPs,
		Scale:     scale,
		Apps:      multiGPUApps,
		Placement: core.PlaceRoundRobin.String(),
	}
	benches, _, err := mixedBenches()
	if err != nil {
		return nil, err
	}
	res.Points = make([]MultiGPUPoint, len(devCounts))
	err = forEach(len(devCounts), func(i int) error {
		p, err := multiGPURun(benches, scale, nVPs, devCounts[i])
		if err != nil {
			return err
		}
		res.Points[i] = *p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		res.Points[i].Speedup = res.Points[0].MakespanSec / res.Points[i].MakespanSec
		if res.Points[i].WallClockSec > 0 {
			res.Points[i].WallSpeedup = res.Points[0].WallClockSec / res.Points[i].WallClockSec
		}
	}
	return res, nil
}

// multiGPURun serves the fleet once on nDev devices and measures the makespan
// plus the host time the simulation took.
func multiGPURun(benches []*kernels.Benchmark, scale, nVPs, nDev int) (*MultiGPUPoint, error) {
	opts := core.DefaultOptions()
	opts.Mode = hostgpu.ExecTimingOnly
	opts.MemBytes = fleetMemBytes
	f, err := newFarmFleet(opts, nDev, benches, scale, nVPs)
	if err != nil {
		return nil, err
	}
	defer f.close()

	// Sync is the completion barrier, so the measurement window covers
	// exactly the simulation work.
	start := time.Now()
	for it := 0; it < f.iters; it++ {
		if err := f.step(it); err != nil {
			return nil, err
		}
	}
	pt := &MultiGPUPoint{Devices: nDev, MakespanSec: f.ms.Sync(), Utilization: make([]float64, nDev)}
	pt.WallClockSec = time.Since(start).Seconds()
	if pt.MakespanSec > 0 {
		for i := 0; i < nDev; i++ {
			pt.Utilization[i] = f.ms.Device(i).GPU.BusySeconds(hostgpu.EngineCompute) / pt.MakespanSec
		}
	}
	return pt, nil
}

func (r *MultiGPUResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-GPU serving: %d VPs, mixed workload (%s), %s placement\n",
		r.VPs, strings.Join(r.Apps, ", "), r.Placement)
	fmt.Fprintf(&b, "%8s %14s %9s %11s %9s   %s\n", "devices", "makespan (s)", "speedup", "wall (s)", "wall spd", "per-device compute utilization")
	for _, p := range r.Points {
		var u []string
		for _, f := range p.Utilization {
			u = append(u, fmt.Sprintf("%.2f", f))
		}
		fmt.Fprintf(&b, "%8d %14.4f %8.2fx %11.3f %8.2fx   [%s]\n",
			p.Devices, p.MakespanSec, p.Speedup, p.WallClockSec, p.WallSpeedup, strings.Join(u, " "))
	}
	return b.String()
}

// JSON renders the study in the BENCH artifact shape.
func (r *MultiGPUResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
