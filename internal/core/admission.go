// Admission control for the serving layer: per-VP quotas (queued jobs and
// queued bytes), a token-bucket submission rate limiter, and typed overload
// rejections carrying a suggested backoff. The goal is graceful degradation —
// a runaway VP is shed at the service door instead of filling the job queue,
// pinning unbounded host memory, or parking every IPC worker in WaitJob.
//
// A farm has one gate, shared by its devices, and every cap is decided under
// its one lock. Admission accounting is wall-clock state: the
// core.admission.* host family of each device's registry (the farm-cap sheds
// go to the farm registry). Like
// executor health it is left out of every Snapshot, which must stay
// byte-identical between a contended and an uncontended run of the same
// admitted workload — shed attempts must never perturb it.

package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// DefaultRetryAfter is the base backoff hint attached to quota sheds (not
// rate sheds, whose hint is computed from the bucket).
const DefaultRetryAfter = 2 * time.Millisecond

// AdmissionOptions bound what guests may keep in flight. Every knob defaults
// to zero = unlimited, so a zero value disables admission control entirely
// and preserves the historical accept-everything behaviour.
type AdmissionOptions struct {
	// MaxQueuedJobs caps how many admitted jobs one VP may have in the
	// system (queued or executing, until completion) at once.
	MaxQueuedJobs int
	// MaxQueuedBytes caps the host-side payload bytes (H2D sources, D2H
	// result buffers) one VP may pin at once. A single request larger than
	// the cap can never be admitted and is shed as non-retryable.
	MaxQueuedBytes int64

	// DeviceMaxQueuedJobs / DeviceMaxQueuedBytes cap the device-wide totals
	// across all VPs served by one device. Placement also refuses a new VP
	// a device at or over either cap (see MultiService).
	DeviceMaxQueuedJobs  int
	DeviceMaxQueuedBytes int64

	// FarmMaxQueuedJobs / FarmMaxQueuedBytes cap the totals across every
	// device of a MultiService farm. They are checked first, in the same
	// gate and under the same lock as every other cap, so they too are hard
	// bounds.
	FarmMaxQueuedJobs  int
	FarmMaxQueuedBytes int64

	// Rate, when > 0, limits each VP to this sustained admission rate
	// (submissions/second, wall clock) with Burst of slack; excess is shed
	// with a backoff hint sized to the token deficit.
	Rate  float64
	Burst int
}

// enabled reports whether any knob is active — i.e. whether a farm needs an
// admission gate at all.
func (a AdmissionOptions) enabled() bool {
	return a.MaxQueuedJobs > 0 || a.MaxQueuedBytes > 0 || a.DeviceMaxQueuedJobs > 0 ||
		a.DeviceMaxQueuedBytes > 0 || a.FarmMaxQueuedJobs > 0 || a.FarmMaxQueuedBytes > 0 || a.Rate > 0
}

// burst returns the effective token-bucket depth.
func (a AdmissionOptions) burst() float64 {
	if a.Burst > 0 {
		return float64(a.Burst)
	}
	if a.Rate >= 1 {
		return a.Rate
	}
	return 1
}

// ErrOverloaded is the sentinel every admission rejection matches via
// errors.Is. The concrete error is always an *OverloadError carrying the
// shed reason, a suggested backoff, and whether retrying can ever succeed.
var ErrOverloaded = errors.New("core: overloaded")

// OverloadError is a typed admission rejection. Retryable sheds are
// transient (quota or rate pressure): the caller should back off for at
// least Backoff and resubmit. Non-retryable sheds can never be admitted
// under the current configuration (e.g. a payload larger than the byte
// quota) and must surface to the application.
type OverloadError struct {
	VP        int
	Reason    string // "vp-jobs", "vp-bytes", "payload", "device-jobs", "device-bytes", "rate", "farm-jobs", "farm-bytes"
	Backoff   time.Duration
	Retryable bool
}

// Error renders the rejection with its reason, backoff hint, and
// retryability.
func (e *OverloadError) Error() string {
	kind := "retry after backoff"
	if !e.Retryable {
		kind = "not retryable"
	}
	return fmt.Sprintf("core: vp %d overloaded (%s, backoff %s, %s)", e.VP, e.Reason, e.Backoff, kind)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// vpAdmission is one VP's admission shard: its live reservation and its
// token bucket. It is keyed by VP, not by device, so a migrating VP takes
// both with it. Guarded by the gate's mutex.
type vpAdmission struct {
	jobs   int
	bytes  int64
	tokens float64
	last   time.Time
}

// deviceLoad is one device's part of the gate: its reservation totals, their
// peaks, and the registry its admits, sheds and queue gauges record into.
type deviceLoad struct {
	reg   *metrics.Registry
	jobs  int
	bytes int64
	// peakJobs/peakBytes are the highest totals ever reserved: exact, where a
	// sampler of the queue gauges can miss a peak.
	peakJobs  int
	peakBytes int64
}

// admission is a farm's admission gate, shared by its devices. One mutex
// covers everything a decision reads — every VP's shard, every device's
// totals and the farm totals — so every cap is a hard bound. The critical
// section is a handful of integer ops, orders of magnitude shorter than the
// work it gates.
type admission struct {
	opts AdmissionOptions
	farm *metrics.Registry // farm-cap sheds

	mu    sync.Mutex
	vps   map[int]*vpAdmission
	devs  []deviceLoad
	jobs  int // farm totals
	bytes int64

	// now is the clock, swappable in tests; nil means time.Now.
	now func() time.Time
}

func (a *admission) clock() time.Time {
	if a.now != nil {
		return a.now()
	}
	return time.Now()
}

// admit charges one job of `payload` host bytes, bound for device dev,
// against the farm totals, the VP's quotas and the device totals, reserving
// them until release. A nil return means the reservation is held. A non-nil
// *OverloadError means nothing was reserved: the request is shed and the
// counters record why.
func (a *admission) admit(dev, vp, payload int) *OverloadError {
	start := time.Now()
	o, p := a.opts, int64(payload)
	a.mu.Lock()
	d := &a.devs[dev]
	st := a.vps[vp]
	if st == nil {
		st = &vpAdmission{tokens: o.burst(), last: a.clock()}
		a.vps[vp] = st
	}

	var oe *OverloadError
	switch {
	case o.FarmMaxQueuedJobs > 0 && a.jobs >= o.FarmMaxQueuedJobs:
		oe = quotaShed(vp, "farm-jobs")
	case o.FarmMaxQueuedBytes > 0 && a.bytes+p > o.FarmMaxQueuedBytes:
		oe = quotaShed(vp, "farm-bytes")
	case o.MaxQueuedBytes > 0 && p > o.MaxQueuedBytes:
		// Larger than the whole quota: no amount of retrying admits it.
		oe = &OverloadError{VP: vp, Reason: "payload", Retryable: false}
	case o.MaxQueuedJobs > 0 && st.jobs >= o.MaxQueuedJobs:
		oe = quotaShed(vp, "vp-jobs")
	case o.MaxQueuedBytes > 0 && st.bytes+p > o.MaxQueuedBytes:
		oe = quotaShed(vp, "vp-bytes")
	case o.DeviceMaxQueuedJobs > 0 && d.jobs >= o.DeviceMaxQueuedJobs:
		oe = quotaShed(vp, "device-jobs")
	case o.DeviceMaxQueuedBytes > 0 && d.bytes+p > o.DeviceMaxQueuedBytes:
		oe = quotaShed(vp, "device-bytes")
	case o.Rate > 0:
		oe = st.take(o, vp, a.clock())
	}
	if oe == nil {
		st.jobs++
		st.bytes += p
		d.jobs++
		d.bytes += p
		d.peakJobs, d.peakBytes = max(d.peakJobs, d.jobs), max(d.peakBytes, d.bytes)
		a.jobs++
		a.bytes += p
		d.publish()
	}
	a.mu.Unlock()

	switch {
	case oe == nil:
		d.reg.Counter("core.admission.admitted").Inc()
		return nil
	case oe.Reason == "farm-jobs" || oe.Reason == "farm-bytes":
		a.farm.Counter("core.admission.shed").Inc()
		a.farm.Counter("core.admission.shed." + oe.Reason).Inc()
		return oe
	case oe.Reason == "rate":
		d.reg.Counter("core.admission.throttled").Inc()
	}
	d.reg.Counter("core.admission.shed").Inc()
	d.reg.Counter("core.admission.shed." + oe.Reason).Inc()
	// The shed path must stay fast — it runs instead of parking an IPC
	// worker. The histogram records how long each rejected caller was held.
	d.reg.Histogram("core.admission.shed_latency_s", metrics.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	return oe
}

// quotaShed is the retryable shed of a job over the named cap.
func quotaShed(vp int, reason string) *OverloadError {
	return &OverloadError{VP: vp, Reason: reason, Backoff: DefaultRetryAfter, Retryable: true}
}

// take spends one token of the VP's bucket, refilled at o.Rate since the
// last take and capped at the burst. With less than a token left it spends
// nothing and returns the rate shed, its backoff sized to the deficit.
func (st *vpAdmission) take(o AdmissionOptions, vp int, now time.Time) *OverloadError {
	st.tokens = min(st.tokens+now.Sub(st.last).Seconds()*o.Rate, o.burst())
	st.last = now
	if st.tokens >= 1 {
		st.tokens--
		return nil
	}
	backoff := time.Duration((1 - st.tokens) / o.Rate * float64(time.Second))
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	return &OverloadError{VP: vp, Reason: "rate", Backoff: backoff, Retryable: true}
}

// release returns one admitted job's reservation on device dev. Must be
// called exactly once per successful admit: the dispatcher releases on
// completion, the disconnect path on cancellation.
func (a *admission) release(dev, vp, payload int) {
	p := int64(payload)
	a.mu.Lock()
	d := &a.devs[dev]
	if st := a.vps[vp]; st != nil {
		st.jobs--
		st.bytes -= p
	}
	d.jobs--
	d.bytes -= p
	a.jobs--
	a.bytes -= p
	d.publish()
	a.mu.Unlock()
}

// publish sets the device's queue gauges to its totals. Caller holds the
// gate's lock: a gauge published outside it could land after a newer
// reservation's, and read above a cap the reservations never exceeded.
func (d *deviceLoad) publish() {
	d.reg.Gauge("core.admission.queue_jobs").Set(int64(d.jobs))
	d.reg.Gauge("core.admission.queue_bytes").Set(d.bytes)
}

// device returns a copy of device dev's part of the gate, read under the
// lock.
func (a *admission) device(dev int) deviceLoad {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.devs[dev]
}

// overQuota reports whether device dev is at or over its device-wide job or
// byte cap — the signal placement uses to route new VPs elsewhere.
func (a *admission) overQuota(dev int) bool {
	o, d := a.opts, a.device(dev)
	return (o.DeviceMaxQueuedJobs > 0 && d.jobs >= o.DeviceMaxQueuedJobs) ||
		(o.DeviceMaxQueuedBytes > 0 && d.bytes >= o.DeviceMaxQueuedBytes)
}
