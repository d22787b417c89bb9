package experiments

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/sched"
)

// The two lock-step fleets behind every multi-VP study. Both mirror the VP
// Control batching predicate: each round collects every still-running VP's
// job burst in VP order and re-schedules it as one batch per device.
// runBareFleet drives one bare device through the harness dispatcher (Fig. 11
// and the VP-count scaling study, whose unoptimized scenario needs the
// device's Serialize switch); farmFleet drives a core.MultiService (the
// multi-GPU study and the migration and checkpoint drills).

// fleetMemBytes sizes every fleet device's arena: room for the 32-VP point of
// the scaling study at the CLI's default scale.
const fleetMemBytes = 1 << 33

// multiGPUApps is the mixed workload of the farm studies. Its length is
// coprime with the device counts {1,2,4}, so round-robin placement deals
// every device a mix of cheap and expensive applications instead of pinning
// one application per device.
var multiGPUApps = []string{"vectorAdd", "BlackScholes", "scalarProd", "reduction", "matrixMul"}

// mixedBenches resolves multiGPUApps and the iteration count of the longest
// of them.
func mixedBenches() (benches []*kernels.Benchmark, maxIters int, err error) {
	for _, name := range multiGPUApps {
		b, err := kernels.Get(name)
		if err != nil {
			return nil, 0, err
		}
		benches = append(benches, b)
		maxIters = max(maxIters, b.Iterations)
	}
	return benches, maxIters, nil
}

// runBareFleet plays nVPs VPs, each running the benchmark's application
// loop, on one bare timing-only Quadro 4000, and returns the GPU-side
// makespan plus one VP's provisioning for the caller's IPC-cost tail.
func runBareFleet(bench *kernels.Benchmark, w *kernels.Workload, nVPs int, optimized bool, ipc IPCCost) (float64, *provisioned, error) {
	g := timingGPU(arch.Quadro4000(), fleetMemBytes)
	g.Serialize = !optimized
	policy := sched.PolicyFIFO
	if optimized {
		policy = sched.PolicyInterleave
	}
	// Resolve λ once, so per-iteration launches are cheap.
	dyn, err := bench.SampleDyn(w)
	if err != nil {
		return 0, nil, err
	}
	provs := make([]*provisioned, nVPs)
	for vpID := range provs {
		p, err := provisionOn(g, bench, w)
		if err != nil {
			return 0, nil, err
		}
		p.launch.Dyn = dyn
		provs[vpID] = p
	}
	totalJobs := 0
	for it := 0; it < bench.Iterations; it++ {
		var batch []*sched.Job
		for vpID, p := range provs {
			batch = append(batch, p.iterationJobs(vpID, vpID, it)...)
		}
		totalJobs += len(batch)
		if err := dispatch(g, batch, policy, optimized); err != nil {
			return 0, nil, err
		}
	}
	gpuSec := g.Sync()
	if !optimized {
		// Without the optimizations the dispatcher serves synchronous
		// requests one at a time: the device idles for a request round-trip
		// between consecutive jobs. VP Control's batching (stop all VPs,
		// re-schedule, dispatch) eliminates these gaps.
		gpuSec += float64(totalJobs) * ipc.LatencySec
	}
	return gpuSec, provs[0], nil
}

// farmFleet is a VP fleet with the mixed workload on a farm of Quadro 4000s.
// VPs register in id order and placement is round-robin, so device assignment
// is a pure function of that order; buffers are reserved through
// Service.AllocVP, so they travel with a VP that migrates.
type farmFleet struct {
	opts core.Options
	ms   *core.MultiService
	vps  []*provisioned // by VP id, holding guest pointers
	// iters is the iteration count of the fleet's longest application.
	iters int
	// finalD2H holds, per VP id, the last iteration's D2H jobs: the run's
	// output. Its length is the fleet size.
	finalD2H [][]*sched.Job
}

// newFleetFarm builds a fleet's farm: nDev Quadro 4000s, round-robin placed.
func newFleetFarm(opts core.Options, nDev int) (*core.MultiService, error) {
	gpus := make([]arch.GPU, nDev)
	for i := range gpus {
		gpus[i] = arch.Quadro4000()
	}
	return core.NewMultiServicePlaced(opts, gpus, core.PlaceRoundRobin)
}

// newFarmFleet boots the farm and provisions VP id with benches[id mod
// len(benches)]. The caller closes the fleet; a fleet that failed to
// provision has closed its farm already.
func newFarmFleet(opts core.Options, nDev int, benches []*kernels.Benchmark, scale, nVPs int) (*farmFleet, error) {
	ms, err := newFleetFarm(opts, nDev)
	if err != nil {
		return nil, err
	}
	f := &farmFleet{opts: opts, ms: ms, finalD2H: make([][]*sched.Job, nVPs)}
	if err := f.provision(benches, scale); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// provision registers the VPs in id order and reserves their buffers.
func (f *farmFleet) provision(benches []*kernels.Benchmark, scale int) error {
	dynOf := map[string]*kpl.Stats{}
	for id := range f.finalD2H {
		f.ms.RegisterVP(id)
		dev, _ := f.ms.Assignment(id)
		bench := benches[id%len(benches)]
		w := bench.MakeWorkload(scale)
		p, err := provision(bench, w, func(size int, _ []byte) (devmem.Ptr, error) {
			return f.ms.Device(dev).AllocVP(id, size)
		})
		if err != nil {
			return err
		}
		dyn, sampled := dynOf[bench.Name]
		if !sampled {
			if dyn, err = bench.SampleDyn(w); err != nil {
				return err
			}
			dynOf[bench.Name] = dyn
		}
		p.launch.Dyn = dyn
		f.vps = append(f.vps, p)
		f.iters = max(f.iters, bench.Iterations)
	}
	return nil
}

// step dispatches iteration it: every still-running VP's burst, built against
// the device the VP is on now (a migration may have moved it, and rebased its
// pointers, since the last iteration) and submitted into the VP's stream
// window. DispatchBatch only enqueues with pipelining on, so the devices'
// simulations run concurrently in wall clock; Sync or Flush is the barrier.
// A pointer the VP's device refuses to translate fails the step before any
// batch is dispatched.
func (f *farmFleet) step(it int) error {
	batches := make([][]*sched.Job, f.ms.Devices())
	for id, p := range f.vps {
		if it >= p.bench.Iterations {
			continue
		}
		dev, _ := f.ms.Assignment(id)
		svc := f.ms.Device(dev)
		r, err := p.resolved(func(guest devmem.Ptr) (devmem.Ptr, error) { return svc.ResolvePtr(id, guest) })
		if err != nil {
			return err
		}
		jobs := r.iterationJobs(id, core.VPStream(id, 0), it)
		if it == p.bench.Iterations-1 {
			f.finalD2H[id] = jobs[len(jobs)-len(p.outPtrs):]
		}
		batches[dev] = append(batches[dev], jobs...)
	}
	for dev, batch := range batches {
		if len(batch) > 0 {
			f.ms.DispatchBatch(dev, batch)
		}
	}
	return nil
}

// close unregisters the fleet.
func (f *farmFleet) close() {
	for id := range f.finalD2H {
		f.ms.UnregisterVP(id)
	}
}
