package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/kernels"
)

// SweepRow is one kernel's estimation accuracy in the extended sweep.
type SweepRow struct {
	Kernel              string
	Host                string
	C, C1, C2, PowerErr float64 // normalized times and relative power error
}

// SweepResult extends the paper's Fig. 12/13 study from 4 kernels to the
// whole benchmark suite — a robustness check the paper leaves as future
// work ("the same method can be extended"). Rows are normalized by the
// measured target time/power.
type SweepResult struct {
	Rows []SweepRow

	MeanAbsC, MeanAbsC1, MeanAbsC2 float64 // mean |estimate − 1|
	WorstC2                        float64
	MeanAbsPowerErr                float64
}

// EstimationSweep runs the ladder for every benchmark on both host GPUs. The
// per-benchmark cells run concurrently on the harness pool; the accuracy
// accumulators are folded serially in benchmark order afterwards, so every
// reported number is identical to the serial sweep.
func EstimationSweep(scale int) (*SweepResult, error) {
	if scale < 1 {
		scale = 1
	}
	benches := kernels.All()
	cells := make([][]SweepRow, len(benches))
	err := forEach(len(benches), func(i int) error {
		rows, err := fig12Cell(benches[i].Name, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", benches[i].Name, err)
		}
		for _, row := range rows {
			cells[i] = append(cells[i], SweepRow{
				Kernel: row.Kernel, Host: row.Host,
				C: row.C, C1: row.C1, C2: row.C2, PowerErr: row.powerErr(),
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &SweepResult{}
	n := 0.0
	for _, rows := range cells {
		for _, row := range rows {
			res.Rows = append(res.Rows, row)
			res.MeanAbsC += math.Abs(row.C - 1)
			res.MeanAbsC1 += math.Abs(row.C1 - 1)
			res.MeanAbsC2 += math.Abs(row.C2 - 1)
			res.MeanAbsPowerErr += math.Abs(row.PowerErr)
			if e := math.Abs(row.C2 - 1); e > res.WorstC2 {
				res.WorstC2 = e
			}
			n++
		}
	}
	res.MeanAbsC /= n
	res.MeanAbsC1 /= n
	res.MeanAbsC2 /= n
	res.MeanAbsPowerErr /= n
	return res, nil
}

func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Estimation sweep: C/C'/C'' and power across the suite (target Tegra K1 = 1)\n")
	fmt.Fprintf(&b, "%-22s %-12s %8s %8s %8s %9s\n", "kernel", "host", "C", "C'", "C''", "power err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-12s %8.3f %8.3f %8.3f %8.1f%%\n",
			row.Kernel, row.Host, row.C, row.C1, row.C2, 100*row.PowerErr)
	}
	fmt.Fprintf(&b, "mean |error|: C %.3f, C' %.3f, C'' %.3f; worst C'' %.3f; mean |power err| %.1f%%\n",
		r.MeanAbsC, r.MeanAbsC1, r.MeanAbsC2, r.WorstC2, 100*r.MeanAbsPowerErr)
	return b.String()
}
