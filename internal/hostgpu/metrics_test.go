package hostgpu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/raceflag"
)

// cacheStats reads the timing cache's hit and miss counters from the registry
// attached to g.
func cacheStats(t testing.TB, g *GPU) (hits, misses int64) {
	t.Helper()
	if g.Metrics == nil {
		t.Fatal("no registry attached: the timing cache counts into it")
	}
	return g.Metrics.Counter("hostgpu.timing_cache.hits").Value(), g.Metrics.Counter("hostgpu.timing_cache.misses").Value()
}

// TestZeroThreadLaunchTimingGuard is the regression test for the timing-cache
// poisoning bug: LaunchTiming divided σ by l.Threads() with no guard, so a
// zero-thread launch produced NaN/Inf timings that were then memoized and
// served as cache hits. Zero-thread launches must be rejected before Scale,
// by the launch contract's shape rule, which Price applies.
func TestZeroThreadLaunchTimingGuard(t *testing.T) {
	g := newQuadro(t)
	g.Metrics = metrics.New()
	l := prepVecAdd(t, g, 64, 1, 128)
	l.Grid = 0 // zero threads

	for i := 0; i < 2; i++ {
		sigma, _, timing, err := g.LaunchTiming(l)
		if err == nil {
			t.Fatalf("call %d: LaunchTiming accepted a zero-thread launch", i)
		}
		if !strings.Contains(err.Error(), "invalid launch 0×128: want 0 < grid") {
			t.Fatalf("call %d: err = %v, want the shape rule's refusal", i, err)
		}
		if math.IsNaN(timing.Seconds) || math.IsInf(timing.Seconds, 0) {
			t.Fatalf("call %d: timing leaked NaN/Inf: %v", i, timing.Seconds)
		}
		for _, v := range sigma {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("call %d: sigma leaked NaN/Inf: %v", i, sigma)
			}
		}
	}
	// Nothing may have been memoized: a repeat must not be a (poisoned) hit.
	if hits, _ := cacheStats(t, g); hits != 0 {
		t.Fatalf("timing cache served %d hits for a rejected launch", hits)
	}

	// The same device must still price valid launches finitely afterwards.
	l.Grid = 1
	_, _, timing, err := g.LaunchTiming(l)
	if err != nil {
		t.Fatalf("valid launch after rejection: %v", err)
	}
	if !(timing.Seconds > 0) || math.IsInf(timing.Seconds, 0) {
		t.Fatalf("valid launch timing = %v, want finite > 0", timing.Seconds)
	}
}

// TestDeviceMetrics checks the hostgpu instrumentation: engine op counts and
// busy nanoseconds, and the timing-cache hit/miss counters.
func TestDeviceMetrics(t *testing.T) {
	g := newQuadro(t)
	reg := metrics.New()
	g.Metrics = reg

	l := prepVecAdd(t, g, 256, 2, 128)
	if _, _, err := g.Launch(1, l); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Launch(2, l); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.CopyD2H(1, l.Bindings["out"], 0, 64, nil); err != nil {
		t.Fatal(err)
	}

	// prepVecAdd issued three H2D fills on stream 0.
	if got := reg.Counter("hostgpu.ops.h2d").Value(); got != 3 {
		t.Errorf("ops.h2d = %d, want 3", got)
	}
	if got := reg.Counter("hostgpu.ops.compute").Value(); got != 2 {
		t.Errorf("ops.compute = %d, want 2", got)
	}
	if got := reg.Counter("hostgpu.ops.d2h").Value(); got != 1 {
		t.Errorf("ops.d2h = %d, want 1", got)
	}
	if got := reg.Counter("hostgpu.engine_busy_ns.compute").Value(); got <= 0 {
		t.Errorf("engine_busy_ns.compute = %d, want > 0", got)
	}
	// Identical second launch rides the timing cache.
	hits := reg.Counter("hostgpu.timing_cache.hits").Value()
	misses := reg.Counter("hostgpu.timing_cache.misses").Value()
	if hits < 1 || misses < 1 {
		t.Errorf("timing cache counters hits=%d misses=%d, want both >= 1", hits, misses)
	}
}

// TestScheduleAllocs: ChargeD2D schedules once per chunk of every merged
// launch. The counters it moves are those of the registry attached now, each
// appearing when it is first counted, and after that a schedule allocates
// nothing.
func TestScheduleAllocs(t *testing.T) {
	g := newQuadro(t)
	first, second := metrics.New(), metrics.New()
	names := func(r *metrics.Registry) string {
		var s []string
		for _, c := range r.Snapshot().Counters {
			s = append(s, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
		return strings.Join(s, " ")
	}
	g.Metrics = first
	g.ChargeD2D(1, 4096)
	g.Metrics = second
	g.ChargeD2D(1, 4096)
	g.ChargeD2D(1, 4096)
	if got, want := names(first), "hostgpu.engine_busy_ns.h2d=46 hostgpu.ops.h2d=1"; got != want {
		t.Errorf("first registry: %s, want %s", got, want)
	}
	if got, want := names(second), "hostgpu.engine_busy_ns.h2d=92 hostgpu.ops.h2d=2"; got != want {
		t.Errorf("second registry: %s, want %s", got, want)
	}
	if raceflag.Enabled {
		return // race instrumentation perturbs allocation counts
	}
	if n := testing.AllocsPerRun(100, func() { g.ChargeD2D(1, 4096) }); n != 0 {
		t.Errorf("a schedule with a registry attached allocates %v times, want 0", n)
	}
}
