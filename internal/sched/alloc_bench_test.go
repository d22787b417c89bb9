package sched

import (
	"fmt"
	"testing"

	"repro/internal/hostgpu"
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
// order slice, not a fresh set of bookkeeping maps per batch.
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

// TestPlanAllocs is the regression pin: a planned batch must not reallocate
// the scratch maps. The bound allows the output slice plus occasional pool
// refills after a GC, nothing more (the un-pooled planner cost ~20).
func TestPlanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	for _, policy := range []Policy{PolicyFIFO, PolicyInterleave} {
		batch := planBatch(8)
		Plan(batch, policy) // warm the pool
		avg := testing.AllocsPerRun(100, func() {
			Plan(batch, policy)
		})
		if avg > 4 {
			t.Errorf("policy %v: %.1f allocs per planned batch, want <= 4", policy, avg)
		}
	}
}
