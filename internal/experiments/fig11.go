package experiments

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
)

// Fig11Row is the result for one benchmark application.
type Fig11Row struct {
	App string

	// EmulSec is the execution time of GPU emulation on the VPs (the blue
	// bar: eight VPs run concurrently on the many-core host, so this is the
	// per-VP emulated application time).
	EmulSec float64

	// PlainSec / OptSec are the ΣVP times without and with the two
	// optimizations.
	PlainSec float64
	OptSec   float64

	// SpeedupPlain / SpeedupOpt are the red and green series of Fig. 11.
	SpeedupPlain float64
	SpeedupOpt   float64
}

// Fig11Result reproduces Fig. 11: eight VPs concurrently execute each CUDA
// SDK application under three scenarios — GPU emulation on the VP, plain
// ΣVP multiplexing, and ΣVP with Kernel Interleaving + Kernel Coalescing.
// Paper anchors: plain speedups 622× (mergeSort) … 2045× (BlackScholes);
// optimized 1098× (SobelFilter) … 6304× (BlackScholes); GL/file-bound apps
// capped by their non-CUDA portions.
type Fig11Result struct {
	VPs   int
	Scale int
	Rows  []Fig11Row
}

// Fig11 runs the study at the given workload scale (the paper-equivalent
// regime is scale ≈ 32; smaller scales keep the same shape). The per-
// application cells are independent — each builds its own devices — and run
// concurrently on the harness worker pool; row order and every number are
// identical to the serial harness.
func Fig11(scale int) (*Fig11Result, error) {
	const nVPs = 8
	if scale < 1 {
		scale = 1
	}
	res := &Fig11Result{VPs: nVPs, Scale: scale}
	benches := kernels.All()
	res.Rows = make([]Fig11Row, len(benches))
	err := forEach(len(benches), func(i int) error {
		row, err := fig11Row(benches[i], scale, nVPs)
		if err != nil {
			return fmt.Errorf("%s: %w", benches[i].Name, err)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fig11Row runs the three scenarios of one application.
func fig11Row(bench *kernels.Benchmark, scale, nVPs int) (Fig11Row, error) {
	ipc := DefaultIPC()
	w := bench.MakeWorkload(scale)

	// --- Scenario 1: GPU emulation on the VP. ---
	emulSec, err := emulScenario(bench, w, nVPs)
	if err != nil {
		return Fig11Row{}, err
	}
	row := Fig11Row{App: bench.Name, EmulSec: emulSec}

	// --- Scenarios 2–3: ΣVP without and with the optimizations. ---
	for _, optimized := range []bool{false, true} {
		sec, err := runSigmaVP(bench, w, nVPs, optimized, ipc)
		if err != nil {
			return Fig11Row{}, err
		}
		// The non-CUDA portions (OpenGL through Mesa, file I/O) run on
		// the VP in every scenario and are not accelerated.
		sec += float64(bench.Iterations) * bench.NonCUDAVPSeconds
		if optimized {
			row.OptSec = sec
		} else {
			row.PlainSec = sec
		}
	}
	row.SpeedupPlain = row.EmulSec / row.PlainSec
	row.SpeedupOpt = row.EmulSec / row.OptSec
	return row, nil
}

// runSigmaVP measures the GPU-side makespan of nVPs VPs each running the
// benchmark's application loop through the ΣVP service, plus the IPC costs.
func runSigmaVP(bench *kernels.Benchmark, w *kernels.Workload, nVPs int, optimized bool, ipc IPCCost) (float64, error) {
	gpuSec, p, err := runBareFleet(bench, w, nVPs, optimized, ipc)
	if err != nil {
		return 0, err
	}
	// IPC cost: every VP pays request latency + marshaling for its own
	// traffic; the eight VPs marshal concurrently (separate guest cores), so
	// the scenario cost is one VP's. Copy-once applications only marshal
	// their buffers at the start and end of the run.
	ipcSec := float64(bench.Iterations) * ipc.LatencySec // launch requests
	if bench.CopyEachIteration {
		ipcSec += float64(bench.Iterations) * (float64(p.opsPerIteration()-1)*ipc.LatencySec +
			ipc.Transfer(p.iterationBytes()))
	} else {
		ipcSec += float64(p.opsPerIteration()-1)*ipc.LatencySec + ipc.Transfer(p.iterationBytes())
	}
	return gpuSec + ipcSec, nil
}

// Row returns the row for one application.
func (r *Fig11Result) Row(app string) Fig11Row {
	for _, row := range r.Rows {
		if row.App == app {
			return row
		}
	}
	return Fig11Row{}
}

func (r *Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11: GPU emulation on %d VPs vs ΣVP (scale %d)\n", r.VPs, r.Scale)
	fmt.Fprintf(&b, "%-24s %12s %12s %12s\n", "application", "emul (s)", "speedup", "speedup+opt")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %12.2f %12.0f %12.0f\n", row.App, row.EmulSec, row.SpeedupPlain, row.SpeedupOpt)
	}
	return b.String()
}
