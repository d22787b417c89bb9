package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/sched"
)

// busyProgram is one copy-in → busywork-kernel → copy-out guest program with
// controllable kernel length.
type busyProgram struct {
	launch   *hostgpu.Launch
	inPtr    devmem.Ptr
	payload  []byte
	outBytes int
}

// calibrateBusyIters finds the loop count m that makes the busywork kernel
// run for targetSec on arch g with the given shape, by bisection over the
// timing model.
func calibrateBusyIters(g *arch.GPU, prog *kir.Program, grid, block int, targetSec float64) int {
	shape := profile.LaunchShape{Grid: grid, Block: block}
	timeFor := func(m int) float64 {
		l := kir.Launch{
			NThreads: grid * block,
			Params:   map[string]kpl.Value{"m": kpl.IntVal(int64(m))},
		}
		per, err := prog.SigmaPerThread(g, l, nil)
		if err != nil {
			return math.Inf(1)
		}
		return hostgpu.KernelTiming(g, shape, per, nil).Seconds
	}
	lo, hi := 1, 1
	for timeFor(hi) < targetSec && hi < 1<<30 {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if timeFor(mid) < targetSec {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newBusyProgram provisions one busy program on the device. len(payload)
// sets Tm; iters sets Tk. The devices these programs run on only keep time, so
// the copy buffer is reserved, not allocated, and the programs of a run share
// one host payload that nothing reads or writes.
func newBusyProgram(g *hostgpu.GPU, kernel *kpl.Kernel, prog *kir.Program, payload []byte, iters int) (*busyProgram, error) {
	outPtr, err := g.Mem.Alloc(4 * 1024)
	if err != nil {
		return nil, err
	}
	inPtr, err := g.Mem.Reserve(len(payload))
	if err != nil {
		return nil, err
	}
	return &busyProgram{
		launch: &hostgpu.Launch{
			Kernel: kernel, Prog: prog,
			Grid: 512, Block: 256,
			Params:   map[string]kpl.Value{"m": kpl.IntVal(int64(iters))},
			Bindings: map[string]devmem.Ptr{"out": outPtr},
		},
		inPtr:    inPtr,
		payload:  payload,
		outBytes: len(payload),
	}, nil
}

// jobs emits the program's copy-in → kernel → copy-out burst.
func (p *busyProgram) jobs(vpID int) []*sched.Job {
	return []*sched.Job{
		sched.NewH2D(vpID, vpID, p.inPtr, 0, p.payload),
		sched.NewKernel(vpID, vpID, p.launch),
		sched.NewD2H(vpID, vpID, p.inPtr, 0, p.outBytes),
	}
}

// runInterleaving measures the makespan of n busy programs under the
// serialized baseline and under Kernel Interleaving, for the given copy
// size and kernel length.
func runInterleaving(n, copyBytes, iters int) (serial, interleaved float64, err error) {
	kernel, err := busyKernel()
	if err != nil {
		return 0, 0, err
	}
	prog, err := kir.Analyze(kernel)
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, copyBytes)
	run := func(serialize bool, policy sched.Policy) (float64, error) {
		g := newGPU(arch.Quadro4000(), 1<<32)
		g.Mode = hostgpu.ExecTimingOnly
		g.Serialize = serialize
		var batch []*sched.Job
		for vpID := 0; vpID < n; vpID++ {
			p, err := newBusyProgram(g, kernel, prog, payload, iters)
			if err != nil {
				return 0, err
			}
			batch = append(batch, p.jobs(vpID)...)
		}
		if err := dispatch(g, batch, policy, false); err != nil {
			return 0, err
		}
		return g.Sync(), nil
	}
	if serial, err = run(true, sched.PolicyFIFO); err != nil {
		return 0, 0, err
	}
	if interleaved, err = run(false, sched.PolicyInterleave); err != nil {
		return 0, 0, err
	}
	return serial, interleaved, nil
}

// Fig9aPoint is one sweep point of Fig. 9(a).
type Fig9aPoint struct {
	KernelMS float64 // kernel execution time Tk
	Speedup  float64 // measured: serialized / interleaved
	Expected float64 // Eq. 7: N(2Tm+Tk) / (2Tm + N·max(Tm,Tk))
}

// Fig9aResult reproduces Fig. 9(a): interleaving speedup of two programs as
// the kernel length sweeps past the fixed memory-copy time Tm = 13.44 ms.
type Fig9aResult struct {
	MemcpyMS float64
	Points   []Fig9aPoint
}

// Fig9a runs the sweep.
func Fig9a() (*Fig9aResult, error) {
	const n = 2
	q := arch.Quadro4000()
	// Tm = 13.44 ms of copy: size = (Tm − latency) × BW.
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

	res := &Fig9aResult{MemcpyMS: tm * 1e3}
	for _, tkMS := range []float64{2, 5, 8, 11, 13.44, 16, 20, 27, 40, 60, 80, 100} {
		iters := calibrateBusyIters(&q, prog, 512, 256, tkMS*1e-3)
		serial, inter, err := runInterleaving(n, copyBytes, iters)
		if err != nil {
			return nil, err
		}
		tk := tkMS * 1e-3
		expected := float64(n) * (2*tm + tk) / (2*tm + float64(n)*math.Max(tm, tk))
		res.Points = append(res.Points, Fig9aPoint{
			KernelMS: tkMS,
			Speedup:  serial / inter,
			Expected: expected,
		})
	}
	return res, nil
}

func (r *Fig9aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9(a): Kernel Interleaving speedup vs kernel length (Tm = %.2f ms)\n", r.MemcpyMS)
	fmt.Fprintf(&b, "%10s %10s %10s\n", "Tk (ms)", "measured", "expected")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.2f %10.3f %10.3f\n", p.KernelMS, p.Speedup, p.Expected)
	}
	return b.String()
}

// Fig9bPoint is one sweep point of Fig. 9(b).
type Fig9bPoint struct {
	N        int
	Speedup  float64
	Expected float64 // Eq. 8: 3N/(2+N)
}

// Fig9bResult reproduces Fig. 9(b): interleaving speedup vs the number of
// interleaved programs with Tk = Tm, approaching 3× (Eq. 8).
type Fig9bResult struct {
	Points []Fig9bPoint
}

// Fig9b runs the sweep.
func Fig9b() (*Fig9bResult, error) {
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

	res := &Fig9bResult{}
	for _, n := range []int{2, 4, 8, 16, 32} {
		serial, inter, err := runInterleaving(n, copyBytes, iters)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig9bPoint{
			N:        n,
			Speedup:  serial / inter,
			Expected: 3 * float64(n) / (2 + float64(n)),
		})
	}
	return res, nil
}

func (r *Fig9bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9(b): Kernel Interleaving speedup vs number of programs (Tk = Tm)\n")
	fmt.Fprintf(&b, "%6s %10s %10s\n", "N", "measured", "expected")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %10.3f %10.3f\n", p.N, p.Speedup, p.Expected)
	}
	return b.String()
}
