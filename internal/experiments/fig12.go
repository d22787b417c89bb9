package experiments

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/profile"
)

// estimationApps are the four kernels of the paper's Fig. 12/13 study.
var estimationApps = []string{"BlackScholes", "matrixMul", "dct8x8", "Mandelbrot"}

// Fig12Row is the normalized-time comparison for one kernel and one host.
type Fig12Row struct {
	Kernel string
	Host   string

	// All values normalized by the measured target (Tegra K1) time.
	HostTime float64 // H: observed on the host GPU (≪ 1)
	Target   float64 // T: always 1 by construction
	C        float64 // Eq. 2 estimate
	C1       float64 // C′, Eq. 4
	C2       float64 // C″, Eq. 5

	// Raw values for the power study.
	MeasuredSec    float64
	MeasuredPowerW float64
	EstPowerW      float64
}

// Fig12Result reproduces Fig. 12: execution-time estimates for the target
// Tegra K1 from profiles measured on two different host GPUs, normalized by
// the observed target time. The ladder C → C′ → C″ approaches 1.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 runs the study at the given workload scale. Per-application cells
// run concurrently on the harness pool; rows flatten in application order,
// matching the serial study exactly.
func Fig12(scale int) (*Fig12Result, error) {
	if scale < 1 {
		scale = 1
	}
	cells := make([][]Fig12Row, len(estimationApps))
	err := forEach(len(estimationApps), func(i int) error {
		rows, err := fig12Cell(estimationApps[i], scale)
		if err != nil {
			return fmt.Errorf("%s: %w", estimationApps[i], err)
		}
		cells[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for _, rows := range cells {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// fig12Cell runs one application against the target and every host GPU.
func fig12Cell(name string, scale int) ([]Fig12Row, error) {
	bench, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	tegra := arch.TegraK1()
	w := bench.MakeWorkload(scale)

	// "Measured" execution on the actual target device.
	_, _, targetProf, err := measureOn(tegra, bench, w)
	if err != nil {
		return nil, err
	}

	var rows []Fig12Row
	for _, host := range arch.HostGPUs() {
		host := host
		l, priced, hostProf, err := measureOn(host, bench, w)
		if err != nil {
			return nil, err
		}
		r, err := l.Estimate(&host, &tegra, priced, hostProf)
		if err != nil {
			return nil, err
		}
		norm := targetProf.TimeSec
		rows = append(rows, Fig12Row{
			Kernel:         name,
			Host:           host.Name,
			HostTime:       hostProf.TimeSec / norm,
			Target:         1,
			C:              r.TimeC / norm,
			C1:             r.TimeC1 / norm,
			C2:             r.TimeC2 / norm,
			MeasuredSec:    targetProf.TimeSec,
			MeasuredPowerW: targetProf.PowerW(),
			EstPowerW:      r.PowerW,
		})
	}
	return rows, nil
}

// measureOn runs the benchmark once on a fresh timing-only device of the
// given architecture (kernels.Benchmark.Measure).
func measureOn(a arch.GPU, bench *kernels.Benchmark, w *kernels.Workload) (*hostgpu.Launch, *hostgpu.Priced, *profile.Profile, error) {
	return bench.Measure(timingGPU(a, 1<<32), w)
}

// powerErr is the relative error of the Eq. 6 estimate against the measured
// target power.
func (row *Fig12Row) powerErr() float64 {
	return (row.EstPowerW - row.MeasuredPowerW) / row.MeasuredPowerW
}

func (r *Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12: normalized execution times (target Tegra K1 = 1)\n")
	fmt.Fprintf(&b, "%-14s %-12s %8s %4s %8s %8s %8s\n", "kernel", "host", "H", "T", "C", "C'", "C''")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-12s %8.3f %4.0f %8.3f %8.3f %8.3f\n",
			row.Kernel, row.Host, row.HostTime, row.Target, row.C, row.C1, row.C2)
	}
	return b.String()
}

// Fig13Row is the power comparison for one kernel and host.
type Fig13Row struct {
	Kernel string
	Host   string

	MeasuredW   float64
	EstimatedW  float64
	RelativeErr float64
}

// Fig13Result reproduces Fig. 13: power estimated by Eq. 6 versus the power
// measured on the target device — within about 10% in the paper.
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13 runs the power study (it reuses the Fig. 12 measurements).
func Fig13(scale int) (*Fig13Result, error) {
	f12, err := Fig12(scale)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{}
	for _, row := range f12.Rows {
		res.Rows = append(res.Rows, Fig13Row{
			Kernel:      row.Kernel,
			Host:        row.Host,
			MeasuredW:   row.MeasuredPowerW,
			EstimatedW:  row.EstPowerW,
			RelativeErr: row.powerErr(),
		})
	}
	return res, nil
}

func (r *Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13: power on the target (Tegra K1): measured vs Eq. 6 estimate\n")
	fmt.Fprintf(&b, "%-14s %-12s %12s %12s %8s\n", "kernel", "host", "measured (W)", "estimate (W)", "err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-12s %12.3f %12.3f %7.1f%%\n",
			row.Kernel, row.Host, row.MeasuredW, row.EstimatedW, 100*row.RelativeErr)
	}
	return b.String()
}
