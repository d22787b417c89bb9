package experiments

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/sched"
)

// heavyVecAdd is the Fig. 10(a) guest kernel: elementwise c = f(a, b) with a
// per-element compute chain long enough that the kernel dominates the
// copies, launched as ONE block per program with a grid-stride loop — the
// configuration in which a single program badly undersubscribes the GPU and
// coalescing N programs multiplies the grid (the paper's "number of
// concurrent threads" alignment argument).
func heavyVecAdd() (*kpl.Kernel, *kir.Program, error) {
	k := &kpl.Kernel{
		Name: "vectorAddHeavy",
		Params: []kpl.ParamDecl{
			{Name: "n", T: kpl.I32},
			{Name: "m", T: kpl.I32}, // per-element compute chain length
		},
		Bufs: []kpl.BufDecl{
			{Name: "a", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "b", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			kpl.For("elems", "j", kpl.CI(0), kpl.Div(kpl.Add(kpl.P("n"), kpl.Sub(kpl.NT(), kpl.CI(1))), kpl.NT()),
				kpl.Let("i", kpl.Add(kpl.TID(), kpl.Mul(kpl.V("j"), kpl.NT()))),
				kpl.IfProb(0.95, kpl.LT(kpl.V("i"), kpl.P("n")),
					kpl.Let("acc", kpl.Add(kpl.Load("a", kpl.V("i")), kpl.Load("b", kpl.V("i")))),
					kpl.For("chain", "w", kpl.CI(0), kpl.P("m"),
						kpl.Let("acc", kpl.Add(kpl.Mul(kpl.V("acc"), kpl.CF(0.999999)), kpl.CF(1e-7))),
					),
					kpl.Store("out", kpl.V("i"), kpl.V("acc")),
				),
			),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		return nil, nil, err
	}
	return k, prog, nil
}

// Fig10aPoint is one sweep point of Fig. 10(a).
type Fig10aPoint struct {
	N       int     // programs coalesced
	TimeMS  float64 // total execution time of the coalesced run
	Speedup float64 // vs the single-program base
}

// Fig10aResult reproduces Fig. 10(a): the same total vectorAdd work is
// distributed over N programs; coalescing them into one kernel launch
// multiplies the concurrent-thread count and amortizes launch overheads.
// Paper anchors: ≈10.5× at N = 16, ≈20.5× at N = 64.
type Fig10aResult struct {
	Points []Fig10aPoint
}

// Fig10a runs the sweep.
func Fig10a() (*Fig10aResult, error) {
	kernel, prog, err := heavyVecAdd()
	if err != nil {
		return nil, err
	}
	const (
		totalElems = 1 << 20
		chain      = 512
		block      = 128 // one small block per program: heavy undersubscription
	)

	timeFor := func(n int) (float64, error) {
		g := timingGPU(arch.Quadro4000(), 1<<30)
		perProgram := totalElems / n
		payload := make([]byte, 4*perProgram)

		var batch []*sched.Job
		for vpID := 0; vpID < n; vpID++ {
			bind := map[string]devmem.Ptr{}
			for _, name := range []string{"a", "b", "out"} {
				ptr, err := g.Mem.Alloc(4 * perProgram)
				if err != nil {
					return 0, err
				}
				bind[name] = ptr
			}
			l := &hostgpu.Launch{
				Kernel: kernel, Prog: prog,
				Grid: 1, Block: block,
				Params: map[string]kpl.Value{
					"n": kpl.IntVal(int64(perProgram)),
					"m": kpl.IntVal(chain),
				},
				Bindings: bind,
			}
			batch = append(batch,
				sched.NewH2D(vpID, vpID, bind["a"], 0, payload),
				sched.NewH2D(vpID, vpID, bind["b"], 0, payload),
			)
			kj := sched.NewKernel(vpID, vpID, l)
			kj.Coalescable = true
			batch = append(batch, kj)
			batch = append(batch, sched.NewD2H(vpID, vpID, bind["out"], 0, 4*perProgram))
		}
		batch = coalesce.Apply(g, batch)
		if err := dispatch(g, batch, sched.PolicyInterleave, false); err != nil {
			return 0, err
		}
		return g.Sync(), nil
	}

	base, err := timeFor(1)
	if err != nil {
		return nil, err
	}
	res := &Fig10aResult{}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		sec, err := timeFor(n)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig10aPoint{
			N:       n,
			TimeMS:  sec * 1e3,
			Speedup: base / sec,
		})
	}
	return res, nil
}

// Point returns the sweep point for the given N.
func (r *Fig10aResult) Point(n int) Fig10aPoint {
	for _, p := range r.Points {
		if p.N == n {
			return p
		}
	}
	return Fig10aPoint{}
}

func (r *Fig10aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10(a): Kernel Coalescing — same total work over N programs\n")
	fmt.Fprintf(&b, "%6s %12s %10s\n", "N", "time (ms)", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %12.2f %10.2f\n", p.N, p.TimeMS, p.Speedup)
	}
	return b.String()
}

// Fig10bPoint is one grid size of Fig. 10(b).
type Fig10bPoint struct {
	Grid   int
	TimeMS float64
	// ExpectedMS is Eq. 9: To + Te·⌈ξ/λ⌉ with λ the device's concurrent
	// block capacity quantum.
	ExpectedMS float64
}

// Fig10bResult reproduces Fig. 10(b): single-kernel execution time versus
// grid size — the staircase that shows unaligned grids wasting resources
// (a grid of 9 blocks and a grid of 16 take the same time on an 8-SM GPU).
type Fig10bResult struct {
	Points []Fig10bPoint
}

// Fig10b runs the sweep.
func Fig10b() (*Fig10bResult, error) {
	_, prog, err := heavyVecAdd()
	if err != nil {
		return nil, err
	}
	q := arch.Quadro4000()
	const (
		block = 512
		chain = 512
	)

	res := &Fig10bResult{}
	var te, to float64
	for grid := 1; grid <= 64; grid++ {
		n := grid * block // one element per thread
		l := kir.Launch{
			NThreads: n,
			Params: map[string]kpl.Value{
				"n": kpl.IntVal(int64(n)),
				"m": kpl.IntVal(chain),
			},
		}
		per, err := prog.SigmaPerThread(&q, l, nil)
		if err != nil {
			return nil, err
		}
		tm := hostgpu.KernelTiming(&q, profile.LaunchShape{Grid: grid, Block: block}, per, nil)
		if grid == 1 {
			// Calibrate Eq. 9's Te (per-quantum time) and To from the model.
			te = tm.ComputeCycles / q.ClockHz()
			to = tm.OverheadCycles / q.ClockHz()
		}
		quantum := q.SMCount // blocks the device starts per step
		expected := to + te*float64((grid+quantum-1)/quantum)
		res.Points = append(res.Points, Fig10bPoint{
			Grid:       grid,
			TimeMS:     tm.Seconds * 1e3,
			ExpectedMS: expected * 1e3,
		})
	}
	return res, nil
}

// Point returns the result for one grid size.
func (r *Fig10bResult) Point(grid int) Fig10bPoint {
	for _, p := range r.Points {
		if p.Grid == grid {
			return p
		}
	}
	return Fig10bPoint{}
}

func (r *Fig10bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10(b): single-kernel execution time vs grid size (block = 512)\n")
	fmt.Fprintf(&b, "%6s %12s %12s\n", "grid", "time (ms)", "Eq.9 (ms)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %12.3f %12.3f\n", p.Grid, p.TimeMS, p.ExpectedMS)
	}
	return b.String()
}
