package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// TestMigrationEquivalence is the drill's acceptance matrix: a 16-VP mixed
// workload on a 4-device farm with forced mid-run migrations (including a
// victim migrated onto a device at 4× oversubscription), run serially and
// on a four-worker pool. Within each cell the drill itself asserts the final
// D2H buffers are byte-identical to an untouched reference run, both for the
// migration leg and for the checkpoint→disk→fresh-farm→restore leg; across
// cells the migration run's metrics JSON, merged trace, and D2H digest must
// be byte-identical — harness concurrency may not leak into the simulated
// artifacts.
func TestMigrationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("migration equivalence matrix is a long drill")
	}
	type cell struct {
		name    string
		metrics []byte
		trace   []byte
		digest  string
	}
	var cells []cell
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		SetWorkers(workers)
		res, err := MigrationDrill(16, 2, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.IdenticalD2H || !res.IdenticalCkptD2H || !res.OverloadIdenticalD2H {
			t.Fatalf("%s: identity flags d2h=%v ckpt=%v overload=%v",
				name, res.IdenticalD2H, res.IdenticalCkptD2H, res.OverloadIdenticalD2H)
		}
		if res.Migrations == 0 || res.PtrsRebased == 0 || res.BytesMoved == 0 {
			t.Fatalf("%s: migration counters unexercised: %+v", name, res)
		}
		if res.CheckpointBytes == 0 {
			t.Fatalf("%s: checkpoint leg encoded zero bytes", name)
		}
		cells = append(cells, cell{name, res.MetricsJSON, res.TraceJSON, res.D2HDigest})
	}
	SetWorkers(0)
	ref := cells[0]
	for _, c := range cells[1:] {
		if !bytes.Equal(ref.metrics, c.metrics) {
			t.Errorf("metrics JSON differs: %s vs %s", ref.name, c.name)
		}
		if !bytes.Equal(ref.trace, c.trace) {
			t.Errorf("merged trace differs: %s vs %s", ref.name, c.name)
		}
		if ref.digest != c.digest {
			t.Errorf("D2H digest differs: %s (%s) vs %s (%s)", ref.name, ref.digest, c.name, c.digest)
		}
	}
}

// TestMigrationPlanDeterministic pins the forced-migration plan: it must be
// a pure function of the fleet geometry, or two drill runs would compare
// different workloads.
func TestMigrationPlanDeterministic(t *testing.T) {
	a := migrationPlan(16, 8)
	b := migrationPlan(16, 8)
	if len(a) == 0 {
		t.Fatal("empty plan for the drill geometry")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan step %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, s := range migrationPlan(4, 3) {
		if s.VP >= 4 || s.It >= 3 || s.It < 1 {
			t.Fatalf("plan step %+v out of bounds for 4 VPs × 3 iters", s)
		}
	}
}
