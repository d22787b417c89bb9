package hostgpu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestZeroThreadLaunchTimingGuard is the regression test for the timing-cache
// poisoning bug: LaunchTiming divided σ by l.Threads() with no guard, so a
// zero-thread launch produced NaN/Inf timings that were then memoized and
// served as cache hits. Zero-thread launches must be rejected before Scale.
func TestZeroThreadLaunchTimingGuard(t *testing.T) {
	g := newQuadro(t)
	l := prepVecAdd(t, g, 64, 1, 128)
	l.Grid = 0 // zero threads

	for i := 0; i < 2; i++ {
		sigma, _, timing, err := g.LaunchTiming(l)
		if err == nil {
			t.Fatalf("call %d: LaunchTiming accepted a zero-thread launch", i)
		}
		if !strings.Contains(err.Error(), "zero-thread") {
			t.Fatalf("call %d: err = %v, want zero-thread rejection", i, err)
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
	if hits, _ := g.TimingCacheStats(); hits != 0 {
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
// busy nanoseconds, timing-cache hit/miss counters, and the CKE occupancy
// histogram under overlapping kernels.
func TestDeviceMetrics(t *testing.T) {
	g := newQuadro(t)
	g.ComputeSlots = 2
	reg := metrics.New()
	g.Metrics = reg

	l := prepVecAdd(t, g, 256, 2, 128)
	// Two kernels on distinct streams overlap in the two CKE slots.
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
	// Registry counters mirror the device's own stats.
	gh, gm := g.TimingCacheStats()
	if hits != int64(gh) || misses != int64(gm) {
		t.Errorf("registry (%d/%d) diverges from TimingCacheStats (%d/%d)", hits, misses, gh, gm)
	}
	found := false
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "hostgpu.cke_occupancy" && h.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("cke_occupancy histogram missing or wrong count: %+v", reg.Snapshot().Histograms)
	}
}
