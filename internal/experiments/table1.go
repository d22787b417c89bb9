package experiments

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/cpumodel"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/sched"
)

// Table1Row is one configuration of the matrix-multiplication comparison.
type Table1Row struct {
	Language   string
	ExecutedBy string
	TimeMS     float64
	Ratio      float64 // vs the native-GPU baseline
}

// Table1Result reproduces Table 1: "Execution time of matrix
// multiplication" — a 320×320 double-precision multiply repeated 300 times
// under six execution configurations.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the experiment. Shape targets (paper): native 1×, device
// emulation on the CPU ≈54×, device emulation on the VP ≈2200×, ΣVP ≈3.3×,
// plain C on the CPU ≈48×, plain C on the VP ≈1580×.
func Table1() (*Table1Result, error) {
	const iterations = 300
	bench, err := kernels.Get("matrixMul")
	if err != nil {
		return nil, err
	}
	w := kernels.MatMulWorkload(320, 320, 320)

	// --- Row 1: CUDA executed natively by the (host) GPU. ---
	g := timingGPU(arch.Quadro4000(), 1<<30)
	p, err := provisionOn(g, bench, w)
	if err != nil {
		return nil, err
	}
	for it := 0; it < iterations; it++ {
		if err := dispatch(g, p.phaseJobs(0, 0, true, true), sched.PolicyInterleave, false); err != nil {
			return nil, err
		}
	}
	nativeSec := g.Sync()

	// Canonical instruction count of the kernel (for the C rows and the
	// emulation rows' σ).
	kl := kir.Launch{NThreads: w.Threads(), Params: w.Params}
	sigma, err := bench.Prog.RawSigma(kl, nil)
	if err != nil {
		return nil, err
	}

	// --- Rows 2–3: device emulation on the CPU and inside the VP. ---
	emulRow := func(cpu arch.CPU) float64 {
		perIter := cpumodel.EmulTime(&cpu, sigma, w.Threads()) +
			cpumodel.MemcpyTime(&cpu, p.iterationBytes())
		return perIter * iterations
	}
	host := arch.HostXeon()
	guest := arch.ARMVersatile()
	emulCPUSec := emulRow(host)
	emulVPSec := emulRow(guest)

	// --- Row 4: ΣVP (this work): the host GPU plus per-request IPC. ---
	ipc := DefaultIPC()
	ipcPerIter := float64(p.opsPerIteration()-1)*ipc.LatencySec + ipc.Transfer(p.iterationBytes())
	sigmaVPSec := nativeSec + float64(iterations)*ipcPerIter

	// --- Rows 5–6: the plain-C implementation on the CPU and the VP. The C
	// version performs the same arithmetic with scalar code and no GPU
	// copies. ---
	cCPUSec := cpumodel.ScalarTime(&host, sigma.Sum()) * iterations
	cVPSec := cpumodel.ScalarTime(&guest, sigma.Sum()) * iterations

	res := &Table1Result{}
	add := func(lang, by string, sec float64) {
		res.Rows = append(res.Rows, Table1Row{
			Language:   lang,
			ExecutedBy: by,
			TimeMS:     sec * 1e3,
			Ratio:      sec / nativeSec,
		})
	}
	add("CUDA", "GPU", nativeSec)
	add("CUDA", "Emul. on CPU", emulCPUSec)
	add("CUDA", "Emul. on VP", emulVPSec)
	add("CUDA", "This work", sigmaVPSec)
	add("C", "CPU", cCPUSec)
	add("C", "VP", cVPSec)
	return res, nil
}

// Row returns the row with the given ExecutedBy label.
func (r *Table1Result) Row(by string) Table1Row {
	for _, row := range r.Rows {
		if row.ExecutedBy == by {
			return row
		}
	}
	return Table1Row{}
}

func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Execution time of matrix multiplication (320×320 double ×300)\n")
	fmt.Fprintf(&b, "%-10s %-14s %14s %10s\n", "Language", "Executed by", "Time (ms)", "Ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-14s %14.2f %10.2f\n", row.Language, row.ExecutedBy, row.TimeMS, row.Ratio)
	}
	return b.String()
}
