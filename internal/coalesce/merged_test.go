package coalesce

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/raceflag"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The contracts of a merged launch's functional half (runPieces): it is
// all-or-nothing, its results do not depend on the worker count, aliased
// allocations read and end as under gather → run → scatter, and the host
// allocates the writable copies and nothing else of buffer size.

// vecAddGroup provisions k vectorAdd members of n elements on g. Interpreted
// members (native false) get four blocks, so ExecBlocks has something to fan
// out.
func vecAddGroup(t *testing.T, g *hostgpu.GPU, k, n int, native bool) []*sched.Job {
	t.Helper()
	members := make([]*sched.Job, k)
	for i := range members {
		members[i], _ = vecAddJob(t, g, i+1, n)
		if !native {
			l := members[i].Launch
			l.Native, l.Grid, l.Block = nil, 4, n/4
		}
	}
	return members
}

// TestMergedLaunchAllOrNothing: when member k's kernel fails — after it has
// stored its results, and whichever member it is — no member's device bytes
// change, every member finishes with that error, and the merged regions are
// released. With two failing pieces the error is the lower-indexed one's,
// as from the serial loop.
func TestMergedLaunchAllOrNothing(t *testing.T) {
	const k, n = 5, 512
	for _, workers := range []int{1, 4} {
		for _, failing := range [][]int{{0}, {2}, {4}, {3, 1}} {
			t.Run(fmt.Sprintf("workers%d/fail%v", workers, failing), func(t *testing.T) {
				g := hostgpu.New(arch.Quadro4000(), 1<<24)
				g.Workers = workers
				members := vecAddGroup(t, g, k, n, true)
				errs := map[int]error{}
				for _, i := range failing {
					err := fmt.Errorf("piece %d failed", i)
					errs[i] = err
					native := members[i].Launch.Native
					members[i].Launch.Native = func(env *kpl.Env) error {
						if nerr := native(env); nerr != nil {
							return nerr
						}
						return err // after every store
					}
				}
				want := errs[slices.Min(failing)]
				before, used := g.Mem.Export(), g.Mem.Used()

				if err := Merge(g, members).Run(g); !errors.Is(err, want) {
					t.Fatalf("merged job returned %v, want %v", err, want)
				}
				for i, m := range members {
					if err := m.Wait(); !errors.Is(err, want) {
						t.Errorf("member %d finished with %v, want %v", i, err, want)
					}
				}
				if !reflect.DeepEqual(g.Mem.Export(), before) {
					t.Error("a failed merged launch changed device memory")
				}
				if g.Mem.Used() != used {
					t.Errorf("Used() = %d after the failure, want the members' %d", g.Mem.Used(), used)
				}
			})
		}
	}
}

// mergedOutcome is everything a merged launch leaves behind.
type mergedOutcome struct {
	Mem       []devmem.Entry
	Merged    profile.Profile
	Members   []profile.Profile
	Intervals []hostgpu.Interval
	Timeline  []trace.Record
	Snapshot  metrics.Snapshot
}

func mergedRun(t *testing.T, workers int, native bool) mergedOutcome {
	t.Helper()
	g := hostgpu.New(arch.Quadro4000(), 1<<24)
	g.Workers = workers
	g.Trace = trace.New()
	g.Metrics = metrics.New()
	members := vecAddGroup(t, g, 6, 512, native)
	merged := Merge(g, members)
	if err := merged.Run(g); err != nil {
		t.Fatal(err)
	}
	out := mergedOutcome{
		Mem:       g.Mem.Export(),
		Merged:    *merged.Profile,
		Intervals: []hostgpu.Interval{merged.Interval},
		Timeline:  g.Trace.Records(),
		Snapshot:  g.Metrics.Snapshot(),
	}
	for _, m := range members {
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		out.Members = append(out.Members, *m.Profile)
		out.Intervals = append(out.Intervals, m.Interval)
	}
	return out
}

// TestMergedLaunchWorkerCountDeterminism: device bytes, profiles, intervals,
// the timeline and the metrics snapshot of a merged launch are those of the
// serial run for every worker budget and GOMAXPROCS, with native and with
// interpreted pieces (DESIGN §6).
func TestMergedLaunchWorkerCountDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, native := range []bool{true, false} {
		runtime.GOMAXPROCS(1)
		want := mergedRun(t, 1, native)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 8, 0} {
				if got := mergedRun(t, workers, native); !reflect.DeepEqual(got, want) {
					t.Errorf("native %v, GOMAXPROCS %d, Workers %d: outcome differs from the serial run", native, procs, workers)
				}
			}
		}
	}
}

// TestMergedLaunchAliasing: allocations shared between parameters and between
// members behave as under gather → run → scatter. Every piece reads the bytes
// of before the launch, and a shared writable allocation ends with the last
// member's result.
func TestMergedLaunchAliasing(t *testing.T) {
	const n = 512
	f32 := func(g *hostgpu.GPU, p devmem.Ptr) []float32 {
		raw, err := g.Mem.Read(p, 0, 4*n)
		if err != nil {
			t.Fatal(err)
		}
		return devmem.DecodeF32(raw)
	}
	for _, workers := range []int{1, 4} {
		g := hostgpu.New(arch.Quadro4000(), 1<<24)
		g.Workers = workers
		m := vecAddGroup(t, g, 4, n, true)
		bind := func(i int) map[string]devmem.Ptr { return m[i].Launch.Bindings }
		// Members 0 and 1 write the same allocation; member 2 reads and writes
		// one allocation; member 3 reads what member 2 writes.
		bind(1)["out"] = bind(0)["out"]
		bind(2)["out"] = bind(2)["a"]
		bind(3)["a"] = bind(2)["out"]
		a1, b1 := f32(g, bind(1)["a"]), f32(g, bind(1)["b"])
		x2, b2 := f32(g, bind(2)["a"]), f32(g, bind(2)["b"])
		b3 := f32(g, bind(3)["b"])

		if err := Merge(g, m).Run(g); err != nil {
			t.Fatal(err)
		}
		shared, inPlace, reader := f32(g, bind(1)["out"]), f32(g, bind(2)["out"]), f32(g, bind(3)["out"])
		for i := 0; i < n; i++ {
			if shared[i] != a1[i]+b1[i] {
				t.Fatalf("workers %d: shared out[%d] = %v, want the last member's %v", workers, i, shared[i], a1[i]+b1[i])
			}
			if inPlace[i] != x2[i]+b2[i] {
				t.Fatalf("workers %d: in-place out[%d] = %v, want %v", workers, i, inPlace[i], x2[i]+b2[i])
			}
			if reader[i] != x2[i]+b3[i] {
				t.Fatalf("workers %d: out[%d] = %v read another member's result, want %v", workers, i, reader[i], x2[i]+b3[i])
			}
		}
	}
}

// TestMergedLaunchAllocs pins what the host allocates for a merged launch of
// 16 members with 1 MiB buffers: in timing-only mode nothing of buffer size
// (the 48 MiB of merged regions are reserved, not made), in ExecFull the
// private copies of the writable buffers and nothing else.
func TestMergedLaunchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const k, n = 16, 256 << 10
	const writable = k * 4 * n // vectorAdd writes "out" alone
	for _, tc := range []struct {
		mode  hostgpu.ExecMode
		limit float64
	}{
		{hostgpu.ExecTimingOnly, 64 << 10},
		{hostgpu.ExecFull, 1.1*writable + 64<<10},
	} {
		g := hostgpu.New(arch.Quadro4000(), 1<<28)
		g.Mode = tc.mode
		launches := make([]*hostgpu.Launch, k)
		for i, m := range vecAddGroup(t, g, k, n, true) {
			launches[i] = m.Launch
		}
		run := func() {
			members := make([]*sched.Job, k)
			for i, l := range launches {
				members[i] = sched.NewKernel(i+1, i+1, l)
			}
			if err := Merge(g, members).Run(g); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the timing cache
		// No collection while measuring, as in ipc's TestPayloadCallAllocs.
		old := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(old)
		if got := float64(after.TotalAlloc - before.TotalAlloc); got > tc.limit {
			t.Errorf("mode %d: a merged launch allocates %.0f bytes, want ≤ %.0f", tc.mode, got, tc.limit)
		} else {
			t.Logf("mode %d: %.0f bytes", tc.mode, got)
		}
	}
}

// TestApplyRefusesGroupThatDoesNotFit: four members that fit the device
// (24 KiB live of 30 KiB) whose merged regions would not. Merged, all four
// used to fail with the region's out-of-memory error; the win predictor now
// leaves them in the batch, and each runs alone.
func TestApplyRefusesGroupThatDoesNotFit(t *testing.T) {
	const n = 512
	g := hostgpu.New(arch.Quadro4000(), 30<<10)
	g.Metrics = metrics.New()
	var batch []*sched.Job
	var outs []devmem.Ptr
	for vp := 1; vp <= 4; vp++ {
		j, out := vecAddJob(t, g, vp, n)
		batch, outs = append(batch, j), append(outs, out)
	}
	planned := Apply(g, batch)
	if len(planned) != len(batch) {
		t.Fatalf("Apply returned %d jobs, want the %d members unmerged", len(planned), len(batch))
	}
	for i, j := range planned {
		if j != batch[i] {
			t.Fatalf("job %d is not the member it was", i)
		}
		if err := j.Run(g); err != nil {
			t.Fatalf("vp%d: %v", j.VP, err)
		}
		checkVecAddResult(t, g, i+1, outs[i], n)
	}
	snap := g.Metrics.Snapshot()
	if got := snap.CounterValue("coalesce.rejected"); got != 1 {
		t.Errorf("coalesce.rejected = %d, want 1", got)
	}
	if got := snap.CounterValue("coalesce.wins"); got != 0 {
		t.Errorf("coalesce.wins = %d, want 0", got)
	}
}
