package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
)

// TestOverloadMigrationLegDoesNotWedge is the regression test for the 10 s
// teardown wedge: the victim is migrated onto the aggressors' device and,
// when it finished, used to sit there registered and idle, so the
// submitters' admitted copies never dispatched and the fleet was only
// released by its call deadlines — with the timeouts it then reported thrown
// away. Every leg must now finish well inside drillCallTimeout, and a
// submitter that ends on anything but an overload shed fails the leg.
func TestOverloadMigrationLegDoesNotWedge(t *testing.T) {
	for i := 0; i < 5; i++ {
		start := time.Now()
		leg, err := runOverloadMigration(4, 4)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// A wedged leg lasts at least one full drillCallTimeout; a healthy one
		// is well under a second, so half the timeout separates the two even
		// under -race on a loaded runner.
		if d := time.Since(start); d > drillCallTimeout/2 {
			t.Fatalf("run %d took %v: the fleet waited out a call deadline (%v)", i, d, drillCallTimeout)
		}
		if leg.sheds == 0 || leg.migrations != 1 || !bytes.Equal(leg.refD2H, leg.hotD2H) {
			t.Fatalf("run %d: sheds=%d migrations=%d d2h equal=%v", i, leg.sheds, leg.migrations,
				bytes.Equal(leg.refD2H, leg.hotD2H))
		}
	}
}

// TestAggressorFleetReportsTransportError: a submitter that dies of anything
// other than an overload shed is the fleet's error, returned by stop.
func TestAggressorFleetReportsTransportError(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Admission = core.AdmissionOptions{MaxQueuedJobs: overloadCapJobs}
	farm, err := serveFarm(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.close()
	agg, err := farm.dialAggressors(0, 4*overloadCapJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.close()
	if err := agg.start(make([]byte, overloadSmallPayload)); err != nil {
		t.Fatal(err)
	}
	// Cut one connection under the running fleet: its submitters' calls fail
	// with a transport error, at once, while the rest keep hammering. Wait
	// for one of them to report it before stopping: a submitter between two
	// calls when stop halts the fleet returns without making another.
	agg.conns[0].Close()
	deadline := time.Now().Add(drillCallTimeout)
	for agg.firstErr() == nil && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if err := agg.stop(); err == nil {
		t.Fatalf("fleet lost a connection and reported no error (%d attempts, %d sheds)",
			agg.attempts.Load(), agg.sheds.Load())
	}
}
