package repro

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/experiments"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/sched"
)

// -workers sizes the experiment-harness pool for the whole bench suite
// (0 = one worker per CPU, 1 = serial). Reported simulated metrics are
// identical for every value.
var benchWorkers = flag.Int("workers", 0, "experiment-harness worker pool size (0 = NumCPU, 1 = serial)")

func TestMain(m *testing.M) {
	flag.Parse()
	experiments.SetWorkers(*benchWorkers)
	os.Exit(m.Run())
}

// --- One benchmark per paper table/figure. Each runs the full experiment
// harness; the headline simulated metrics are attached via ReportMetric so
// `go test -bench` output shows the reproduced numbers next to the harness
// cost.

// BenchmarkTable1 regenerates Table 1 (matrix multiplication across six
// execution configurations).
func BenchmarkTable1(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Row("Emul. on VP").Ratio, "emulVP-ratio")
	b.ReportMetric(last.Row("This work").Ratio, "sigmaVP-ratio")
}

// BenchmarkFig9a regenerates the kernel-length interleaving sweep.
func BenchmarkFig9a(b *testing.B) {
	var last *experiments.Fig9aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9a()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	peak := 0.0
	for _, p := range last.Points {
		if p.Speedup > peak {
			peak = p.Speedup
		}
	}
	b.ReportMetric(peak, "peak-speedup")
}

// BenchmarkFig9b regenerates the N-programs interleaving sweep.
func BenchmarkFig9b(b *testing.B) {
	var last *experiments.Fig9bResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9b()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Points[len(last.Points)-1].Speedup, "speedup-at-32")
}

// BenchmarkFig10a regenerates the coalescing-effectiveness sweep.
func BenchmarkFig10a(b *testing.B) {
	var last *experiments.Fig10aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10a()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Point(16).Speedup, "speedup-at-16")
	b.ReportMetric(last.Point(64).Speedup, "speedup-at-64")
}

// BenchmarkFig10b regenerates the grid-size staircase.
func BenchmarkFig10b(b *testing.B) {
	var last *experiments.Fig10bResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10b()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Point(16).TimeMS/last.Point(8).TimeMS, "step-ratio-16v8")
}

// BenchmarkFig11 regenerates the 28-application, 8-VP comparison.
func BenchmarkFig11(b *testing.B) {
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(8)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	minP, maxO := 1e18, 0.0
	for _, row := range last.Rows {
		if row.SpeedupPlain < minP {
			minP = row.SpeedupPlain
		}
		if row.SpeedupOpt > maxO {
			maxO = row.SpeedupOpt
		}
	}
	b.ReportMetric(minP, "min-plain-speedup")
	b.ReportMetric(maxO, "max-opt-speedup")
}

// BenchmarkFig12 regenerates the timing-estimation ladder.
func BenchmarkFig12(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(8)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	worst := 0.0
	for _, row := range last.Rows {
		if d := row.C2 - 1; d > worst || -d > worst {
			if d < 0 {
				d = -d
			}
			worst = d
		}
	}
	b.ReportMetric(worst, "worst-C2-error")
}

// BenchmarkFig13 regenerates the power-estimation comparison.
func BenchmarkFig13(b *testing.B) {
	var last *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(8)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	worst := 0.0
	for _, row := range last.Rows {
		e := row.RelativeErr
		if e < 0 {
			e = -e
		}
		if e > worst {
			worst = e
		}
	}
	b.ReportMetric(worst, "worst-power-error")
}

// BenchmarkMultiGPUScaling runs the multi-GPU serving study (16 VPs, mixed
// workload, 1/2/4 devices) and reports the 4-device speedup and the worst
// per-device compute utilization — the BENCH_7 headline numbers.
func BenchmarkMultiGPUScaling(b *testing.B) {
	var last *experiments.MultiGPUResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.MultiGPUScaling(16, 8, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	p4 := last.Points[len(last.Points)-1]
	b.ReportMetric(p4.Speedup, "4dev-speedup")
	minU := 1.0
	for _, u := range p4.Utilization {
		if u < minU {
			minU = u
		}
	}
	b.ReportMetric(minU, "4dev-min-utilization")
}

// BenchmarkMultiServiceWallClock measures the host time of the 4-device
// MultiGPUScaling study point at GOMAXPROCS 1 and 4. At GOMAXPROCS 1 the
// four device executors timeshare one core, so the farm is as serial as a
// synchronous dispatcher: that cell is the reference. On a multi-core host
// gomaxprocs=4 must beat it by roughly the device count. Simulated results
// are identical in both cells — TestMultiGPUScalingMatchesBENCH7, which CI
// runs at GOMAXPROCS 1 and 4, pins the study's makespans bit for bit.
func BenchmarkMultiServiceWallClock(b *testing.B) {
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := experiments.MultiGPUScaling(16, 8, []int{4})
				if err != nil {
					b.Fatal(err)
				}
				if r.Points[0].MakespanSec <= 0 {
					b.Fatal("no simulated time elapsed")
				}
			}
		})
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out: the
// dispatcher baseline vs each optimization in isolation on a mixed 8-VP
// iteration.

func ablationBatch(b *testing.B, g *hostgpu.GPU) []*sched.Job {
	b.Helper()
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		b.Fatal(err)
	}
	var batch []*sched.Job
	const n = 1 << 16
	payload := make([]byte, 4*n)
	for vpID := 0; vpID < 8; vpID++ {
		bind := map[string]devmem.Ptr{}
		for _, name := range []string{"a", "b", "out"} {
			ptr, err := g.Mem.Alloc(4 * n)
			if err != nil {
				b.Fatal(err)
			}
			bind[name] = ptr
		}
		l := &hostgpu.Launch{
			Kernel: bench.Kernel, Prog: bench.Prog,
			Grid: 8, Block: 256,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
			Bindings: bind,
		}
		batch = append(batch,
			sched.NewH2D(vpID, vpID, bind["a"], 0, payload),
			sched.NewH2D(vpID, vpID, bind["b"], 0, payload))
		kj := sched.NewKernel(vpID, vpID, l)
		kj.Coalescable = true
		batch = append(batch, kj, sched.NewD2H(vpID, vpID, bind["out"], 0, 4*n))
	}
	return batch
}

func runAblation(b *testing.B, serialize bool, policy sched.Policy, coalesceOn bool) {
	b.Helper()
	var makespan float64
	for i := 0; i < b.N; i++ {
		g := hostgpu.New(arch.Quadro4000(), 1<<30)
		g.Mode = hostgpu.ExecTimingOnly
		g.Serialize = serialize
		batch := ablationBatch(b, g)
		if coalesceOn {
			batch = coalesce.Apply(g, batch)
		}
		for _, j := range sched.Plan(batch, policy) {
			if err := j.Run(g); err != nil {
				b.Fatal(err)
			}
			if !j.Done() {
				j.Finish(nil)
			}
		}
		makespan = g.Sync()
	}
	b.ReportMetric(makespan*1e3, "simulated-ms")
}

func BenchmarkAblationBaseline(b *testing.B) {
	runAblation(b, true, sched.PolicyFIFO, false)
}

func BenchmarkAblationInterleaveOnly(b *testing.B) {
	runAblation(b, false, sched.PolicyInterleave, false)
}

func BenchmarkAblationCoalesceOnly(b *testing.B) {
	runAblation(b, true, sched.PolicyFIFO, true)
}

func BenchmarkAblationBoth(b *testing.B) {
	runAblation(b, false, sched.PolicyInterleave, true)
}

// --- Substrate micro-benchmarks: the real wall-clock cost of interpretation
// vs native execution (the emulation-vs-ΣVP gap is genuine, not only
// modeled), σ derivation, the DES timing model, and a full emulated launch.

func vecAddEnv(b *testing.B, n int) (*kernels.Benchmark, *kpl.Env) {
	b.Helper()
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		b.Fatal(err)
	}
	env := kpl.NewEnv(n).SetInt("n", int64(n)).
		Bind("a", kpl.NewBuffer(kpl.F32, n)).
		Bind("b", kpl.NewBuffer(kpl.F32, n)).
		Bind("out", kpl.NewBuffer(kpl.F32, n))
	return bench, env
}

// BenchmarkInterpreterVectorAdd measures the kpl tree-walking interpreter
// (the reference execution engine) on a 64k-element vectorAdd.
func BenchmarkInterpreterVectorAdd(b *testing.B) {
	bench, env := vecAddEnv(b, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Kernel.InterpretAll(env, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelExec compares the tree-walking interpreter against the
// compiled typed engine on the four emul-kpl kernels, with and without
// statistics collection. The compiled/interp ratio is the headline number of
// the compiled-engine optimisation (BENCH_3.json); the blocks-w1/blocks-w2
// pair is ExecBlocks as the emulated device calls it, so the worker scaling
// (and any return of false sharing between workers' frames) is a number in
// the bench-smoke artifact rather than a wall-clock assertion; native is the
// kernel's Go form, the floor no engine can beat.
func BenchmarkKernelExec(b *testing.B) {
	for _, name := range []string{"vectorAdd", "BlackScholes", "matrixMul", "reduction"} {
		bench, err := kernels.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		w := bench.MakeWorkload(1)
		env, err := kernels.BuildEnv(bench, w)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kpl.Compile(bench.Kernel); err != nil {
			b.Fatalf("%s: does not compile: %v", name, err)
		}
		run := func(b *testing.B, exec func(*kpl.Env, *kpl.Stats) error, st *kpl.Stats) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st != nil {
					*st = *kpl.NewStats()
				}
				if err := exec(env, st); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(name+"/interp", func(b *testing.B) {
			run(b, bench.Kernel.InterpretAll, nil)
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			run(b, bench.Kernel.ExecAll, nil)
		})
		b.Run(name+"/interp-stats", func(b *testing.B) {
			run(b, bench.Kernel.InterpretAll, kpl.NewStats())
		})
		b.Run(name+"/compiled-stats", func(b *testing.B) {
			run(b, bench.Kernel.ExecAll, kpl.NewStats())
		})
		b.Run(name+"/native", func(b *testing.B) {
			run(b, func(env *kpl.Env, _ *kpl.Stats) error { return bench.Native(env) }, nil)
		})
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/blocks-w%d", name, workers), func(b *testing.B) {
				run(b, func(env *kpl.Env, st *kpl.Stats) error {
					return bench.Kernel.ExecBlocks(env, st, w.Block, workers)
				}, kpl.NewStats())
			})
		}
	}
}

// BenchmarkInterpreterParallelVectorAdd measures the block-parallel
// interpreter on the same workload (0 = one worker per CPU core).
func BenchmarkInterpreterParallelVectorAdd(b *testing.B) {
	bench, env := vecAddEnv(b, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Kernel.ExecBlocks(env, nil, 256, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeVectorAdd measures the compiled semantics on the same
// workload — the wall-clock interpreter/native gap underlying Table 1.
func BenchmarkNativeVectorAdd(b *testing.B) {
	bench, env := vecAddEnv(b, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Native(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigmaDerivation measures Eq. 1's static σ derivation.
func BenchmarkSigmaDerivation(b *testing.B) {
	bench, err := kernels.Get("BlackScholes")
	if err != nil {
		b.Fatal(err)
	}
	g := arch.TegraK1()
	w := bench.MakeWorkload(8)
	l := kir.Launch{NThreads: w.Threads(), Params: w.Params}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Prog.Sigma(&g, l, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelTimingModel measures one evaluation of the DES kernel
// timing model.
func BenchmarkKernelTimingModel(b *testing.B) {
	g := arch.Quadro4000()
	var per arch.ClassVec
	per[arch.FP32] = 512
	per[arch.Ld] = 128
	shape := profile.LaunchShape{Grid: 256, Block: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hostgpu.KernelTiming(&g, shape, per, nil)
	}
}

// BenchmarkEmulatedLaunch measures a full emulated kernel launch (bind,
// interpret, write back, price).
func BenchmarkEmulatedLaunch(b *testing.B) {
	d := emul.New(arch.HostXeon(), 1<<24)
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	w := bench.MakeWorkload(1)
	_ = w
	l := &hostgpu.Launch{
		Kernel: bench.Kernel, Prog: bench.Prog,
		Grid: (n + 511) / 512, Block: 512,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
		Bindings: map[string]devmem.Ptr{},
	}
	for _, name := range []string{"a", "b", "out"} {
		ptr, err := d.Mem.Alloc(4 * n)
		if err != nil {
			b.Fatal(err)
		}
		l.Bindings[name] = ptr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoalesceMerge measures a full 8-way merge (gather, merged launch,
// scatter) on the device model.
func BenchmarkCoalesceMerge(b *testing.B) {
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	for i := 0; i < b.N; i++ {
		g := hostgpu.New(arch.Quadro4000(), 1<<28)
		g.Mode = hostgpu.ExecTimingOnly
		var members []*sched.Job
		for vpID := 0; vpID < 8; vpID++ {
			bind := map[string]devmem.Ptr{}
			for _, name := range []string{"a", "b", "out"} {
				ptr, err := g.Mem.Alloc(4 * n)
				if err != nil {
					b.Fatal(err)
				}
				bind[name] = ptr
			}
			l := &hostgpu.Launch{
				Kernel: bench.Kernel, Prog: bench.Prog,
				Grid: 1, Block: 512,
				Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
				Bindings: bind,
			}
			j := sched.NewKernel(vpID, vpID, l)
			j.Coalescable = true
			members = append(members, j)
		}
		if err := coalesce.Merge(g, members).Run(g); err != nil {
			b.Fatal(err)
		}
	}
}
