package sched

import (
	"fmt"
	"testing"

	"repro/internal/hostgpu"
	"repro/internal/metrics"
	"repro/internal/raceflag"
)

// planBatch builds a representative dispatch batch: nVPs chains of one H2D,
// one kernel-shaped compute job, and one D2H each — the shape every service
// iteration drains. Run closures are no-ops; planning never executes jobs.
func planBatch(nVPs int) []*Job {
	batch := make([]*Job, 0, 3*nVPs)
	for vp := 0; vp < nVPs; vp++ {
		for i, engine := range []string{hostgpu.EngineH2D, hostgpu.EngineCompute, hostgpu.EngineD2H} {
			j := newJob(vp, vp, engine, fmt.Sprintf("vp%d#%d", vp, i))
			j.Run = func(g *hostgpu.GPU) error { return nil }
			batch = append(batch, j)
		}
	}
	return batch
}

// BenchmarkPlanAllocs pins the allocs-per-batch of the Re-scheduler hot path:
// with the pooled planScratch, a steady-state plan allocates only the returned
// order slice.
func BenchmarkPlanAllocs(b *testing.B) {
	for _, bc := range []struct {
		name   string
		policy Policy
	}{
		{"fifo", PolicyFIFO},
		{"interleave", PolicyInterleave},
	} {
		b.Run(bc.name, func(b *testing.B) {
			batch := planBatch(8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := Plan(batch, bc.policy); len(got) != len(batch) {
					b.Fatalf("planned %d of %d jobs", len(got), len(batch))
				}
			}
		})
	}
}

// TestPlanAllocs is the regression pin: a planned batch allocates the
// returned order and nothing else — the scratch is pooled slices, and
// recording into a registry looks up two existing instruments (the map-based
// planner cost 1 with its maps pooled, ~20 without). AllocsPerRun's integer
// average absorbs a pool refill after a GC.
func TestPlanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	m := metrics.New()
	for _, policy := range []Policy{PolicyFIFO, PolicyInterleave} {
		batch := planBatch(8)
		PlanRecorded(batch, policy, m) // warm the pool and the registry
		for name, plan := range map[string]func(){
			"Plan":         func() { Plan(batch, policy) },
			"PlanRecorded": func() { PlanRecorded(batch, policy, m) },
		} {
			if avg := testing.AllocsPerRun(100, plan); avg > 1 {
				t.Errorf("%s %v: %.1f allocs per planned batch, want <= 1", name, policy, avg)
			}
		}
	}
}
