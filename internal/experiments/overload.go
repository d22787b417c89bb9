package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/ipc"
	"repro/internal/metrics"
)

// Overload drill geometry. The caps are deliberately tiny so a handful of
// concurrent submitters is already "4× oversubscription": the drill is about
// the admission gate's behaviour at its limits, not about volume.
const (
	overloadCapJobs  = 4        // per-VP MaxQueuedJobs
	overloadCapBytes = 64 << 10 // per-VP MaxQueuedBytes

	// Aggressor payloads: the small one makes the job quota bind, the big one
	// makes the byte quota bind, so both shed reasons are exercised.
	overloadSmallPayload = 256
	overloadBigPayload   = 24 << 10
)

// OverloadDrillResult summarizes one overload drill: a 2-device farm served
// over real TCP IPC, with one well-behaved "victim" VP alone on device 0 and
// an aggressor VP on device 1 oversubscribing its admission quota several
// times over. The drill checks the ΣVP graceful-degradation contract:
//
//   - bounded: the admission reservations (the daemon's RSS proxy) never
//     exceed the configured caps, no matter how hard the aggressor pushes;
//   - shed, not blocked: excess submissions come back as typed, retryable
//     overload errors carrying a backoff hint, instead of parking IPC workers;
//   - isolated and deterministic: the victim's admitted work produces
//     byte-identical simulated metrics, engine trace, and D2H bytes whether
//     the aggressor device is idle or melting down.
type OverloadDrillResult struct {
	Oversub int // submitter concurrency as a multiple of the job quota
	Iters   int // victim workload iterations

	CapJobs  int
	CapBytes int64

	// Aggressor-side outcome (contended pass).
	Attempts int64
	Admitted int64
	Sheds    int64
	// BadSheds counts sheds that broke the contract: not typed as an
	// overload, retryable without a positive backoff hint, or non-retryable
	// for an admissible payload. Must be zero.
	BadSheds    int64
	ShedReasons map[string]int

	// High-water of the admission reservations across both devices during
	// the contended pass, as the farm's one gate keeps it per device with
	// every reservation (core.Service.AdmissionHighWater). The reservation accounting
	// bounds them by the caps; a high-water above the cap is an accounting
	// bug.
	MaxQueuedJobsSeen  int64
	MaxQueuedBytesSeen int64

	// LeakJobs/LeakBytes are the farm-wide admission reservations left after
	// every submitter finished and the pipelines drained. Must be zero: every
	// admitted job releases its reservation exactly once.
	LeakJobs  int
	LeakBytes int64

	// Byte-identity of the victim's artifacts between the contended and the
	// uncontended pass.
	IdenticalD2H     bool
	IdenticalMetrics bool
	IdenticalTrace   bool

	// HealthyAfter reports whether both devices answered a clean round trip
	// after the contended pass.
	HealthyAfter bool

	// Metrics is the contended farm's admission snapshot (per-device
	// prefixed + aggregate + farm counters).
	Metrics metrics.Snapshot
}

func (r *OverloadDrillResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload drill: 2-device farm, %d× oversubscription of a %d-job/%dKiB per-VP quota, victim × %d iters\n",
		r.Oversub, r.CapJobs, r.CapBytes>>10, r.Iters)
	fmt.Fprintf(&b, "  aggressor: %d attempts → %d admitted, %d shed (%d contract violations)\n",
		r.Attempts, r.Admitted, r.Sheds, r.BadSheds)
	reasons := make([]string, 0, len(r.ShedReasons))
	for k := range r.ShedReasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(&b, "    shed %-12s %d\n", k, r.ShedReasons[k])
	}
	fmt.Fprintf(&b, "  bounded: queue_jobs high-water %d (cap %d), queue_bytes high-water %d (cap %d), leaks %d jobs / %d bytes\n",
		r.MaxQueuedJobsSeen, r.CapJobs, r.MaxQueuedBytesSeen, r.CapBytes, r.LeakJobs, r.LeakBytes)
	fmt.Fprintf(&b, "  victim identical to uncontended run: d2h=%v metrics=%v trace=%v; farm healthy after drill: %v\n",
		r.IdenticalD2H, r.IdenticalMetrics, r.IdenticalTrace, r.HealthyAfter)
	fmt.Fprintf(&b, "  observed: admitted=%d shed=%d throttled=%d placement_refusals=%d\n",
		r.Metrics.CounterValue("core.admission.admitted"),
		r.Metrics.CounterValue("core.admission.shed"),
		r.Metrics.CounterValue("core.admission.throttled"),
		r.Metrics.CounterValue("core.admission.placement_refusals"))
	return b.String()
}

// overloadRun is one overload pass in flight: a 2-device farm served over
// TCP, the victim guest (VP 0) finished on device 0 with its connection still
// up, and the aggressor fleet (VP 1) on device 1 — hammering it if the pass
// is contended, registered and idle otherwise. finish ends the pass; the farm
// stays served for whatever the caller inspects next, until close.
type overloadRun struct {
	farm   *tcpFarm
	victim ipc.Client
	agg    *aggressorFleet
	d2h    []byte // the victim's output buffer
}

// finish hangs the victim up and then stops the fleet, returning the fleet's
// first non-overload error. The order matters: had the victim been migrated
// onto the aggressors' device it would otherwise sit there registered and
// idle, and the submitters' admitted copies would never dispatch.
func (r *overloadRun) finish() error {
	r.victim.Close()
	return r.agg.stop()
}

// close hangs up every connection and tears the farm down.
func (r *overloadRun) close() {
	r.victim.Close()
	r.agg.close()
	r.farm.close()
}

// overloadPass is what OverloadDrill keeps of one finished run: the victim's
// artifacts, the stopped fleet with its statistics, and the farm's state
// after everything drained.
type overloadPass struct {
	d2h         []byte
	metricsJSON []byte
	traceJSON   []byte

	agg       *aggressorFleet
	leakJobs  int
	leakBytes int64
	// maxJobs/maxBytes are the highest admission reservations any device
	// held while the fleet ran.
	maxJobs, maxBytes int64
	healthErr         error // nil: both devices answered the post-drill probe
	admSnap           metrics.Snapshot
}

// OverloadDrill runs the overload experiment: an uncontended reference pass
// and a contended pass at oversub× the per-VP job quota, then compares the
// victim's artifacts byte for byte. iters sizes the victim workload. It
// returns an error when any part of the graceful-degradation contract is
// violated; the result carries the evidence either way.
func OverloadDrill(oversub, iters int) (*OverloadDrillResult, error) {
	if oversub <= 0 {
		oversub = 4
	}
	if iters <= 0 {
		iters = 4
	}
	res := &OverloadDrillResult{
		Oversub: oversub, Iters: iters,
		CapJobs: overloadCapJobs, CapBytes: overloadCapBytes,
	}

	ref, err := overloadDrillPass(false, oversub, iters)
	if err != nil {
		return res, fmt.Errorf("overload drill (uncontended pass): %w", err)
	}
	hot, err := overloadDrillPass(true, oversub, iters)
	if err != nil {
		return res, fmt.Errorf("overload drill (contended pass): %w", err)
	}

	res.Attempts = hot.agg.attempts.Load()
	res.Admitted = hot.agg.admitted.Load()
	res.Sheds = hot.agg.sheds.Load()
	res.BadSheds = hot.agg.badSheds.Load()
	res.ShedReasons = hot.agg.shedReasons
	res.MaxQueuedJobsSeen = hot.maxJobs
	res.MaxQueuedBytesSeen = hot.maxBytes
	res.LeakJobs = hot.leakJobs
	res.LeakBytes = hot.leakBytes
	res.HealthyAfter = hot.healthErr == nil
	res.Metrics = hot.admSnap
	res.IdenticalD2H = bytes.Equal(ref.d2h, hot.d2h)
	res.IdenticalMetrics = bytes.Equal(ref.metricsJSON, hot.metricsJSON)
	res.IdenticalTrace = bytes.Equal(ref.traceJSON, hot.traceJSON)

	switch {
	case res.Sheds == 0:
		return res, fmt.Errorf("overload drill: no submissions were shed at %d× oversubscription", oversub)
	case res.BadSheds > 0:
		return res, fmt.Errorf("overload drill: %d sheds violated the typed-overload contract", res.BadSheds)
	case res.MaxQueuedJobsSeen > int64(res.CapJobs) || res.MaxQueuedBytesSeen > res.CapBytes:
		return res, fmt.Errorf("overload drill: admission gauges exceeded the caps (jobs %d/%d, bytes %d/%d)",
			res.MaxQueuedJobsSeen, res.CapJobs, res.MaxQueuedBytesSeen, res.CapBytes)
	case res.LeakJobs != 0 || res.LeakBytes != 0:
		return res, fmt.Errorf("overload drill: %d jobs / %d bytes of admission reservations leaked", res.LeakJobs, res.LeakBytes)
	case !res.IdenticalD2H || !res.IdenticalMetrics || !res.IdenticalTrace:
		return res, fmt.Errorf("overload drill: victim artifacts differ from the uncontended run (d2h=%v metrics=%v trace=%v)",
			res.IdenticalD2H, res.IdenticalMetrics, res.IdenticalTrace)
	case !res.HealthyAfter:
		return res, fmt.Errorf("overload drill: farm unhealthy after the contended pass")
	}
	return res, nil
}

// overloadDrillPass runs one pass of the overload drill to the end: the
// victim's artifacts captured off device 0, the fleet stopped, and then the
// farm's reservation balance and health taken.
func overloadDrillPass(contended bool, oversub, iters int) (*overloadPass, error) {
	run, err := startOverloadRun(contended, oversub, iters, nil)
	if err != nil {
		return nil, err
	}
	defer run.close()
	ms := run.farm.ms
	pass := &overloadPass{d2h: run.d2h, agg: run.agg}
	// Capture device 0's artifacts while the victim's connection is up: the
	// hang-up runs the disconnect hook asynchronously, and the snapshot must
	// not race it. The aggressors never touch device 0.
	pass.metricsJSON, err = ms.Device(0).Snapshot().JSON()
	if err == nil {
		pass.traceJSON, err = json.Marshal(ms.Device(0).Trace().Timeline().Records)
	}
	if aggErr := run.finish(); err == nil {
		err = aggErr
	}
	if err != nil {
		return nil, err
	}
	// The fleet has stopped, and the probes below come after this read: the
	// high-water is the drill's own.
	for d := 0; d < ms.Devices(); d++ {
		j, b := ms.Device(d).AdmissionHighWater()
		pass.maxJobs, pass.maxBytes = max(pass.maxJobs, int64(j)), max(pass.maxBytes, b)
	}

	// Reservation balance: once everything drained, the farm must hold zero
	// admission reservations.
	ms.Drain()
	for d := 0; d < ms.Devices(); d++ {
		j, b := ms.Device(d).AdmissionLoad()
		pass.leakJobs += j
		pass.leakBytes += b
	}
	pass.admSnap = ms.AdmissionSnapshot()

	// Post-drill health probe: both devices must still answer a clean round
	// trip (the victim's artifacts were captured above, so this traffic does
	// not perturb them). Nothing migrates in this drill, so VP d still lives
	// on device d. The aggressor hangs up first: left registered and idle it
	// would hold back the probe sharing its device.
	run.agg.close()
	for vp := 0; vp < ms.Devices(); vp++ {
		if d, _ := ms.Assignment(vp); d != vp {
			return nil, fmt.Errorf("vp %d ended on device %d, want %d", vp, d, vp)
		}
		if pass.healthErr = run.farm.probeHealth(vp); pass.healthErr != nil {
			break
		}
	}
	return pass, nil
}

// startOverloadRun serves a fresh 2-device farm over TCP and runs the victim
// guest on VP 0, placed alone on device 0, with the aggressor fleet hammering
// device 1 only when contended is set. The aggressor VP is registered in both
// passes — only its traffic differs — so the victim device sees the same
// registration history either way. afterIter, when non-nil, runs on the
// victim's connection after each of its iterations (the migration drill's
// overload leg moves the victim from there). On success the caller owes the
// run a finish and a close; on error everything is already torn down.
func startOverloadRun(contended bool, oversub, iters int, afterIter func(it int, victim ipc.Client) error) (*overloadRun, error) {
	opts := core.DefaultOptions()
	// Only OverloadDrill reads the trace; recording is one append per job, so
	// the migration leg runs the same farm configuration rather than its own.
	opts.Trace = true
	opts.Admission = core.AdmissionOptions{
		MaxQueuedJobs:        overloadCapJobs,
		MaxQueuedBytes:       overloadCapBytes,
		DeviceMaxQueuedJobs:  2 * overloadCapJobs,
		DeviceMaxQueuedBytes: 2 * overloadCapBytes,
	}
	// Fair dequeue is part of the overload posture; sized to the job quota it
	// never splits the victim's small batches.
	opts.FairShare = overloadCapJobs
	farm, err := serveFarm(opts, 2)
	if err != nil {
		return nil, err
	}
	victim, err := farm.dial(0)
	if err != nil {
		farm.close()
		return nil, fmt.Errorf("victim dial: %w", err)
	}
	// The aggressor fleet: oversub × the job quota concurrent submitters.
	agg, err := farm.dialAggressors(1, oversub*overloadCapJobs)
	if err != nil {
		victim.Close()
		farm.close()
		return nil, err
	}
	run := &overloadRun{farm: farm, victim: victim, agg: agg}
	if d, _ := farm.ms.Assignment(0); d != 0 {
		run.close()
		return nil, fmt.Errorf("victim placed on device %d, want 0", d)
	}
	if d, _ := farm.ms.Assignment(1); d != 1 {
		run.close()
		return nil, fmt.Errorf("aggressor placed on device %d, want 1", d)
	}
	if contended {
		// The small payload makes the job quota bind, the big one the byte
		// quota. The victim only starts once overload is established, so its
		// whole run happens under sustained pressure.
		err := agg.start(bytes.Repeat([]byte{0xA5}, overloadSmallPayload),
			bytes.Repeat([]byte{0x5A}, overloadBigPayload))
		if err != nil {
			run.close() // a fleet that failed to start has stopped itself
			return nil, err
		}
	}

	// The victim workload, identical in both passes. The cudart client's
	// transparent overload retries carry it through any shed of its own.
	err = func() error {
		guest, err := newVectorAddGuest(cudart.NewContext(0, cudart.NewRemoteBackend(victim)))
		if err != nil {
			return err
		}
		var after func(int) error
		if afterIter != nil {
			after = func(it int) error { return afterIter(it, victim) }
		}
		run.d2h, err = guest.run(iters, after)
		return err
	}()
	if err != nil {
		// The fleet's own error, if any, is a consequence of this one.
		run.finish()
		run.close()
		return nil, fmt.Errorf("victim workload: %w", err)
	}
	return run, nil
}
