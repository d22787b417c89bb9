package experiments

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Fig3Result reproduces the paper's Fig. 3 as engine timelines: the same two
// VP programs (copy-in → kernel → copy-out each) dispatched without and with
// Kernel Interleaving, rendered as Gantt charts so the engine overlap is
// visible, plus the utilization numbers behind them.
type Fig3Result struct {
	WithoutGantt string
	WithGantt    string

	WithoutSec float64
	WithSec    float64

	WithoutUtil map[string]float64
	WithUtil    map[string]float64
}

// Fig3 runs the demonstration with Tk ≈ Tm (the regime of the figure).
func Fig3() (*Fig3Result, error) {
	q := arch.Quadro4000()
	tm := 13.44e-3
	copyBytes := int((tm - q.CopyLatencyUS*1e-6) * q.CopyBWGBps * 1e9)
	kernel, err := busyKernel()
	if err != nil {
		return nil, err
	}
	prog, err := kir.Analyze(kernel)
	if err != nil {
		return nil, err
	}
	iters := calibrateBusyIters(&q, prog, 512, 256, tm)
	payload := make([]byte, copyBytes)

	run := func(interleaved bool) (string, float64, map[string]float64, error) {
		g := newGPU(q, 1<<32)
		g.Mode = hostgpu.ExecTimingOnly
		g.Serialize = !interleaved
		g.Trace = trace.New()
		policy := sched.PolicyFIFO
		if interleaved {
			policy = sched.PolicyInterleave
		}
		var batch []*sched.Job
		for vpID := 0; vpID < 2; vpID++ {
			p, err := newBusyProgram(g, kernel, prog, payload, iters)
			if err != nil {
				return "", 0, nil, err
			}
			batch = append(batch, p.jobs(vpID)...)
		}
		if err := dispatch(g, batch, policy, false); err != nil {
			return "", 0, nil, err
		}
		return g.Trace.Gantt(100), g.Sync(), g.Trace.Utilization(), nil
	}

	res := &Fig3Result{}
	if res.WithoutGantt, res.WithoutSec, res.WithoutUtil, err = run(false); err != nil {
		return nil, err
	}
	if res.WithGantt, res.WithSec, res.WithUtil, err = run(true); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: two VP programs on the host GPU (digits are VP streams)\n\n")
	fmt.Fprintf(&b, "(a) without Kernel Interleaving — %.2f ms\n%s", r.WithoutSec*1e3, r.WithoutGantt)
	fmt.Fprintf(&b, "\n(b) with Kernel Interleaving — %.2f ms (%.2fx)\n%s",
		r.WithSec*1e3, r.WithoutSec/r.WithSec, r.WithGantt)
	fmt.Fprintf(&b, "\nengine utilization (busy/span):\n")
	for _, eng := range []string{"h2d", "compute", "d2h"} {
		fmt.Fprintf(&b, "  %-8s %5.1f%% → %5.1f%%\n", eng, 100*r.WithoutUtil[eng], 100*r.WithUtil[eng])
	}
	return b.String()
}
