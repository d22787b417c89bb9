package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/metrics"
)

// Migration drill geometry: a 16-VP fleet with the multi-GPU mixed workload
// on a 4-device farm, with forced mid-run migrations at iteration barriers.
const migrationDevices = 4

// migPlanStep forces one migration: before dispatching iteration It, VP is
// moved to the next device (round-robin from its current assignment). The
// plan is a pure function of the fleet geometry, so two runs of the drill
// perform byte-identical migration sequences.
type migPlanStep struct {
	It int
	VP int
}

// migrationPlan spreads forced moves across the run: a handful of VPs
// migrate at staggered barriers, and VP 0 moves twice to exercise chained
// rebases (its second source holds rebased pointers already).
func migrationPlan(nVPs, maxIters int) []migPlanStep {
	vps := []int{0, 2, 5, 7, 11, 0}
	var plan []migPlanStep
	for i, vp := range vps {
		if vp >= nVPs {
			continue
		}
		it := 1 + i
		if it >= maxIters {
			it = maxIters - 1
		}
		if it < 1 {
			continue
		}
		plan = append(plan, migPlanStep{It: it, VP: vp})
	}
	return plan
}

// MigrationResult summarizes the live-migration drill: the same fleet run
// four ways — untouched (reference), with forced mid-run migrations, split
// across a checkpoint/restore into a fresh farm, and with a victim VP
// migrated onto an overloaded device at 4× oversubscription — all required
// to produce byte-identical D2H output buffers.
type MigrationResult struct {
	VPs        int
	Scale      int
	Devices    int
	Iterations int

	// Migration-run observables, from the farm's core.migrate.* counters.
	Migrations     int64
	BytesMoved     int64
	AllocsReplayed int64
	PtrsRebased    int64

	// CheckpointBytes is the encoded size of the mid-run farm image the
	// checkpoint leg moved through disk.
	CheckpointBytes int

	// Byte-identity of the final D2H buffers versus the reference run.
	IdenticalD2H     bool // migration run
	IdenticalCkptD2H bool // checkpoint/restore run

	// Overload leg: sheds observed while the victim ran, and whether its
	// D2H bytes survived migration onto the contended device.
	OverloadSheds        int64
	OverloadMigrations   int64
	OverloadIdenticalD2H bool

	// Deterministic artifacts of the migration run, for the equivalence
	// suite's cross-worker comparison. Excluded from JSON: the
	// drill's printed result must not embed megabytes of snapshot.
	MetricsJSON []byte `json:"-"`
	TraceJSON   []byte `json:"-"`
	// D2HDigest is the SHA-256 over every VP's final output buffers in VP
	// order — a compact cross-run identity for the data itself.
	D2HDigest string
}

func (r *MigrationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Migration drill: %d VPs on %d devices, mixed workload ×%d iters\n",
		r.VPs, r.Devices, r.Iterations)
	fmt.Fprintf(&b, "  migrations: %d (%d bytes moved, %d allocs replayed, %d ptrs rebased)\n",
		r.Migrations, r.BytesMoved, r.AllocsReplayed, r.PtrsRebased)
	fmt.Fprintf(&b, "  checkpoint: %d bytes encoded, restored into a fresh farm mid-run\n", r.CheckpointBytes)
	fmt.Fprintf(&b, "  identical D2H vs reference: migrated=%v checkpointed=%v\n", r.IdenticalD2H, r.IdenticalCkptD2H)
	fmt.Fprintf(&b, "  overload leg: %d sheds, %d migrations, victim D2H identical: %v\n",
		r.OverloadSheds, r.OverloadMigrations, r.OverloadIdenticalD2H)
	fmt.Fprintf(&b, "  d2h digest: %s\n", r.D2HDigest)
	return b.String()
}

// JSON renders the drill result in the BENCH artifact shape.
func (r *MigrationResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// MigrationDrill runs the live-migration experiment. Legs are independent
// farms and run through the harness pool; the comparisons happen after all
// four finish. It returns an error when any identity or contract check
// fails; the result carries the evidence either way.
func MigrationDrill(nVPs, scale, oversub int) (*MigrationResult, error) {
	if nVPs < 2 {
		nVPs = 2
	}
	if scale < 1 {
		scale = 1
	}
	if oversub <= 0 {
		oversub = 4
	}
	benches, maxIters, err := mixedBenches()
	if err != nil {
		return nil, err
	}
	plan := migrationPlan(nVPs, maxIters)
	res := &MigrationResult{
		VPs: nVPs, Scale: scale, Devices: migrationDevices,
		Iterations: maxIters,
	}

	var (
		ref, mig, ckpt *fleetArtifacts
		over           *overloadMigLeg
	)
	err = forEach(4, func(i int) error {
		var err error
		switch i {
		case 0:
			ref, err = runMigrationFleet(benches, scale, nVPs, migrationDevices, nil, -1)
		case 1:
			mig, err = runMigrationFleet(benches, scale, nVPs, migrationDevices, plan, -1)
		case 2:
			ckpt, err = runMigrationFleet(benches, scale, nVPs, migrationDevices, plan, maxIters/2)
		case 3:
			over, err = runOverloadMigration(oversub, 4)
		}
		return err
	})
	if err != nil {
		return res, err
	}

	res.Migrations = mig.migSnap.CounterValue("core.migrate.migrations")
	res.BytesMoved = mig.migSnap.CounterValue("core.migrate.bytes_moved")
	res.AllocsReplayed = mig.migSnap.CounterValue("core.migrate.allocs_replayed")
	res.PtrsRebased = mig.migSnap.CounterValue("core.migrate.ptrs_rebased")
	res.CheckpointBytes = ckpt.ckptBytes
	res.MetricsJSON = mig.metricsJSON
	res.TraceJSON = mig.traceJSON
	res.D2HDigest = d2hDigest(mig.d2h)
	res.IdenticalD2H = d2hEqual(ref.d2h, mig.d2h)
	res.IdenticalCkptD2H = d2hEqual(ref.d2h, ckpt.d2h)
	res.OverloadSheds = over.sheds
	res.OverloadMigrations = over.migrations
	res.OverloadIdenticalD2H = bytes.Equal(over.refD2H, over.hotD2H)

	switch {
	case res.Migrations != int64(len(plan)):
		return res, fmt.Errorf("migration drill: %d migrations performed, plan had %d", res.Migrations, len(plan))
	case res.PtrsRebased == 0:
		return res, fmt.Errorf("migration drill: no pointer was rebased — the restore path's collision handling went unexercised")
	case !res.IdenticalD2H:
		return res, fmt.Errorf("migration drill: D2H bytes diverged from the reference run after migrations")
	case !res.IdenticalCkptD2H:
		return res, fmt.Errorf("migration drill: D2H bytes diverged after the checkpoint/restore split")
	case res.OverloadSheds == 0:
		return res, fmt.Errorf("migration drill: overload leg shed nothing at %d× oversubscription", oversub)
	case res.OverloadMigrations == 0:
		return res, fmt.Errorf("migration drill: overload leg performed no migration")
	case !res.OverloadIdenticalD2H:
		return res, fmt.Errorf("migration drill: victim D2H diverged after migration onto the contended device")
	}
	return res, nil
}

// CheckpointResult summarizes the checkpoint drill: the fleet run once
// untouched and once split across a save→restore into a fresh farm.
type CheckpointResult struct {
	VPs        int
	Scale      int
	Devices    int
	Iterations int

	// CheckpointBytes is the encoded size of the mid-run farm image.
	CheckpointBytes int

	IdenticalD2H bool
	D2HDigest    string
}

func (r *CheckpointResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint drill: %d VPs on %d devices, mixed workload ×%d iters, save→restore at iter %d\n",
		r.VPs, r.Devices, r.Iterations, r.Iterations/2)
	fmt.Fprintf(&b, "  image: %d bytes\n", r.CheckpointBytes)
	fmt.Fprintf(&b, "  identical D2H vs uninterrupted run: %v\n", r.IdenticalD2H)
	fmt.Fprintf(&b, "  d2h digest: %s\n", r.D2HDigest)
	return b.String()
}

// JSON renders the drill result in the BENCH artifact shape.
func (r *CheckpointResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CheckpointDrill runs the daemon-restart experiment in isolation: the fleet
// runs to its midpoint, the whole farm is checkpointed to disk, a fresh farm
// restores the image and finishes the run, and the final D2H buffers must
// match an uninterrupted run byte for byte.
func CheckpointDrill(nVPs, scale int) (*CheckpointResult, error) {
	if nVPs < 1 {
		nVPs = 1
	}
	if scale < 1 {
		scale = 1
	}
	benches, maxIters, err := mixedBenches()
	if err != nil {
		return nil, err
	}
	res := &CheckpointResult{
		VPs: nVPs, Scale: scale, Devices: migrationDevices,
		Iterations: maxIters,
	}
	var ref, ckpt *fleetArtifacts
	err = forEach(2, func(i int) error {
		var err error
		if i == 0 {
			ref, err = runMigrationFleet(benches, scale, nVPs, migrationDevices, nil, -1)
		} else {
			ckpt, err = runMigrationFleet(benches, scale, nVPs, migrationDevices, nil, maxIters/2)
		}
		return err
	})
	if err != nil {
		return res, err
	}
	res.CheckpointBytes = ckpt.ckptBytes
	res.IdenticalD2H = d2hEqual(ref.d2h, ckpt.d2h)
	res.D2HDigest = d2hDigest(ckpt.d2h)
	if !res.IdenticalD2H {
		return res, fmt.Errorf("checkpoint drill: D2H bytes diverged across the save→restore split")
	}
	return res, nil
}

// fleetArtifacts is one fleet run's comparable output.
type fleetArtifacts struct {
	d2h         map[int][]byte // vp → concatenated final output buffers
	metricsJSON []byte
	traceJSON   []byte
	migSnap     metrics.Snapshot
	ckptBytes   int
}

// runMigrationFleet serves the fleet once in lock-step iterations, applying
// the migration plan at iteration barriers. With checkpointAt >= 0, the whole
// farm is checkpointed before that iteration, round-tripped through a file
// on disk, and restored into a brand-new farm that runs the remaining
// iterations — the daemon-restart scenario. Unlike the multi-GPU scaling
// study the farm runs in full-execution mode — the drill's whole point is
// that buffer *contents* survive migration, so kernels must really compute
// and copies must really move bytes — with tracing on, so migration records
// land in a timeline.
func runMigrationFleet(benches []*kernels.Benchmark, scale, nVPs, nDev int, plan []migPlanStep, checkpointAt int) (*fleetArtifacts, error) {
	opts := core.DefaultOptions()
	opts.MemBytes = fleetMemBytes
	opts.Trace = true
	f, err := newFarmFleet(opts, nDev, benches, scale, nVPs)
	if err != nil {
		return nil, err
	}
	defer f.close()

	a := &fleetArtifacts{d2h: map[int][]byte{}}
	for it := 0; it < f.iters; it++ {
		if it == checkpointAt {
			if a.ckptBytes, err = f.checkpointHandover(); err != nil {
				return nil, err
			}
		}
		for _, step := range plan {
			if step.It != it {
				continue
			}
			dev, _ := f.ms.Assignment(step.VP)
			if err := f.ms.Migrate(step.VP, (dev+1)%nDev); err != nil {
				return nil, err
			}
		}
		if err := f.step(it); err != nil {
			return nil, err
		}
	}

	// Drain the farm and capture the comparable outputs: every VP's final
	// D2H bytes, the merged simulated-metrics snapshot, the merged trace
	// records, and the migration snapshot.
	f.ms.Flush()
	a.migSnap = f.ms.MigrationSnapshot()
	for vp, d2h := range f.finalD2H {
		var out []byte
		for _, j := range d2h {
			if j.Err != nil {
				return nil, fmt.Errorf("experiments: vp %d final D2H: %w", vp, j.Err)
			}
			out = append(out, j.Data...)
		}
		a.d2h[vp] = out
	}
	if a.metricsJSON, err = f.ms.Snapshot().JSON(); err != nil {
		return nil, err
	}
	if tl := f.ms.MergedTrace(); tl != nil {
		if a.traceJSON, err = json.Marshal(tl.Records); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// checkpointHandover cuts a farm image, round-trips it through a file on
// disk, and moves the fleet onto a fresh farm restored from it — the
// daemon-restart leg. It returns the image's size on disk.
func (f *farmFleet) checkpointHandover() (int, error) {
	ck, err := f.ms.Checkpoint()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "sigmavp-ckpt")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "farm.ckpt")
	if err := core.SaveCheckpoint(path, ck); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	ck2, err := core.LoadCheckpoint(path)
	if err != nil {
		return 0, err
	}
	fresh, err := newFleetFarm(f.opts, f.ms.Devices())
	if err != nil {
		return 0, err
	}
	if err := fresh.Restore(ck2); err != nil {
		return 0, err
	}
	f.ms = fresh
	return len(data), nil
}

// d2hEqual compares two per-VP output maps byte for byte.
func d2hEqual(a, b map[int][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for vp, data := range a {
		if !bytes.Equal(data, b[vp]) {
			return false
		}
	}
	return true
}

// d2hDigest hashes the per-VP outputs in VP order.
func d2hDigest(d2h map[int][]byte) string {
	vps := make([]int, 0, len(d2h))
	for vp := range d2h {
		vps = append(vps, vp)
	}
	sort.Ints(vps)
	h := sha256.New()
	for _, vp := range vps {
		h.Write(d2h[vp])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// overloadMigLeg is the overload leg's outcome: the victim VP is live-
// migrated onto the aggressor's device while that device sheds at several
// times its quota, and its D2H bytes must match an uncontended, unmigrated
// reference.
type overloadMigLeg struct {
	sheds      int64
	migrations int64
	refD2H     []byte
	hotD2H     []byte
}

// runOverloadMigration runs the overload drill's two passes with one twist:
// halfway through the contended pass the victim is live-migrated onto the
// device the aggressor fleet is oversubscribing, via a MigrateReq on its own
// connection (farm-admin requests bypass the migration gate, so a VP may move
// itself).
func runOverloadMigration(oversub, iters int) (*overloadMigLeg, error) {
	// pass runs one overload run to the end; a fleet that ended on anything
	// but an overload shed fails the leg. The run's counters outlive its farm.
	pass := func(contended bool, afterIter func(int, ipc.Client) error) (*overloadRun, error) {
		run, err := startOverloadRun(contended, oversub, iters, afterIter)
		if err != nil {
			return nil, err
		}
		defer run.close()
		return run, run.finish()
	}
	ref, err := pass(false, nil)
	if err != nil {
		return nil, fmt.Errorf("overload-migration leg (reference pass): %w", err)
	}
	hot, err := pass(true, func(it int, victim ipc.Client) error {
		if it+1 != iters/2 {
			return nil
		}
		resp, err := victim.Call(ipc.MigrateReq{VP: 0, Target: 1})
		if err != nil {
			return fmt.Errorf("iter %d migrate: %w", it, err)
		}
		if _, ok := resp.(ipc.OKResp); !ok {
			return fmt.Errorf("iter %d migrate: unexpected response %T", it, resp)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("overload-migration leg (contended pass): %w", err)
	}
	return &overloadMigLeg{
		sheds:      hot.agg.sheds.Load(),
		migrations: hot.farm.ms.MigrationSnapshot().CounterValue("core.migrate.migrations"),
		refD2H:     ref.d2h, hotD2H: hot.d2h,
	}, nil
}
