package experiments

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/cpumodel"
	"repro/internal/kernels"
	"repro/internal/kir"
)

// ScalingPoint is one VP count in the scaling study.
type ScalingPoint struct {
	VPs int

	EmulSec  float64 // serialized multi-VP emulation
	PlainSec float64 // ΣVP, unoptimized dispatcher
	OptSec   float64 // ΣVP + interleaving + coalescing

	SpeedupPlain float64
	SpeedupOpt   float64
}

// ScalingResult is an extension of the paper's evaluation: how the three
// scenarios scale with the number of simulated VPs (2..32) for one
// application. The paper's premise — "simulation with multiple instances of
// virtual platforms enables many important design decisions" — makes this
// the capacity-planning curve a user of ΣVP needs.
type ScalingResult struct {
	App    string
	Points []ScalingPoint
}

// Scaling runs the study for one benchmark at the given workload scale.
func Scaling(app string, scale int) (*ScalingResult, error) {
	bench, err := kernels.Get(app)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	res := &ScalingResult{App: app}
	ipc := DefaultIPC()
	counts := []int{1, 2, 4, 8, 16, 32}
	res.Points = make([]ScalingPoint, len(counts))
	err = forEach(len(counts), func(i int) error {
		n := counts[i]
		w := bench.MakeWorkload(scale)
		emulSec, err := emulScenario(bench, w, n)
		if err != nil {
			return err
		}
		plain, err := scalingSigmaVP(bench, w, n, false, ipc)
		if err != nil {
			return err
		}
		opt, err := scalingSigmaVP(bench, w, n, true, ipc)
		if err != nil {
			return err
		}
		res.Points[i] = ScalingPoint{
			VPs:          n,
			EmulSec:      emulSec,
			PlainSec:     plain,
			OptSec:       opt,
			SpeedupPlain: emulSec / plain,
			SpeedupOpt:   emulSec / opt,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// emulScenario prices the emulation of n VPs. Multi-VP QEMU simulations
// execute the VP instances through one simulation loop (netShip-style
// co-simulation), so completing n emulated VPs costs n times one VP's
// emulated application time.
func emulScenario(bench *kernels.Benchmark, w *kernels.Workload, n int) (float64, error) {
	guest := arch.ARMVersatile()
	dyn, err := bench.SampleDyn(w)
	if err != nil {
		return 0, err
	}
	sigma, err := bench.Prog.RawSigma(kir.Launch{NThreads: w.Threads(), Params: w.Params}, dyn)
	if err != nil {
		return 0, err
	}
	perIter := cpumodel.EmulTime(&guest, sigma, w.Threads())
	memcpySec := cpumodel.MemcpyTime(&guest, w.InBytes()+w.OutBytes())
	if bench.CopyEachIteration {
		perIter += memcpySec
		memcpySec = 0
	}
	return float64(n) * (float64(bench.Iterations)*(perIter+bench.NonCUDAVPSeconds) + memcpySec), nil
}

// scalingSigmaVP is the scaling study's ΣVP scenario: the bare fleet's
// makespan plus the study's flat IPC estimate (one launch round-trip per
// iteration and one marshaling of a VP's buffers).
func scalingSigmaVP(bench *kernels.Benchmark, w *kernels.Workload, nVPs int, optimized bool, ipc IPCCost) (float64, error) {
	sec, p, err := runBareFleet(bench, w, nVPs, optimized, ipc)
	if err != nil {
		return 0, err
	}
	sec += float64(bench.Iterations)*ipc.LatencySec + ipc.Transfer(p.iterationBytes())
	return sec, nil
}

func (r *ScalingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling study: %s under the three scenarios vs VP count\n", r.App)
	fmt.Fprintf(&b, "%6s %14s %14s %14s %10s %10s\n", "VPs", "emul (s)", "ΣVP (s)", "ΣVP+opt (s)", "speedup", "spdup+opt")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %14.3f %14.4f %14.4f %10.0f %10.0f\n",
			p.VPs, p.EmulSec, p.PlainSec, p.OptSec, p.SpeedupPlain, p.SpeedupOpt)
	}
	return b.String()
}
