// Admission control for the serving layer: per-VP quotas (queued jobs and
// queued bytes), a token-bucket submission rate limiter, and typed overload
// rejections carrying a suggested backoff. The goal is graceful degradation —
// a runaway VP is shed at the service door instead of filling the job queue,
// pinning unbounded host memory, or parking every IPC worker in WaitJob.
//
// Admission accounting is wall-clock state: the core.admission.* host family
// of the service registry (the farm-cap sheds go to the farm registry). Like
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
	// across all VPs served by one Service. Placement also refuses devices
	// at or over their job cap (see MultiService).
	DeviceMaxQueuedJobs  int
	DeviceMaxQueuedBytes int64

	// FarmMaxQueuedJobs / FarmMaxQueuedBytes cap the totals across every
	// device of a MultiService farm; enforced at the farm router, before
	// placement.
	FarmMaxQueuedJobs  int
	FarmMaxQueuedBytes int64

	// Rate, when > 0, limits each VP to this sustained admission rate
	// (submissions/second, wall clock) with Burst of slack; excess is shed
	// with a backoff hint sized to the token deficit.
	Rate  float64
	Burst int
}

// deviceEnabled reports whether any per-VP or per-device knob is active —
// i.e. whether a Service needs an admission gate at all.
func (a AdmissionOptions) deviceEnabled() bool {
	return a.MaxQueuedJobs > 0 || a.MaxQueuedBytes > 0 ||
		a.DeviceMaxQueuedJobs > 0 || a.DeviceMaxQueuedBytes > 0 || a.Rate > 0
}

// farmEnabled reports whether the farm-wide caps are active.
func (a AdmissionOptions) farmEnabled() bool {
	return a.FarmMaxQueuedJobs > 0 || a.FarmMaxQueuedBytes > 0
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
// token bucket. Guarded by the owning admission's mutex.
type vpAdmission struct {
	jobs   int
	bytes  int64
	tokens float64
	last   time.Time
}

// admission is a Service's admission gate. One mutex covers the per-VP map
// and the device totals: the critical section is a handful of integer ops,
// orders of magnitude shorter than the work it gates.
type admission struct {
	opts AdmissionOptions
	reg  *metrics.Registry

	mu       sync.Mutex
	vps      map[int]*vpAdmission
	devJobs  int
	devBytes int64
	// peakJobs/peakBytes are the highest device totals ever reserved: exact,
	// where a sampler of the queue gauges can miss a peak.
	peakJobs  int
	peakBytes int64

	// now is the clock, swappable in tests; nil means time.Now.
	now func() time.Time
}

func (a *admission) clock() time.Time {
	if a.now != nil {
		return a.now()
	}
	return time.Now()
}

// admit charges one job of `payload` host bytes against the VP's quotas and
// the device totals, reserving them until release. A nil return means the
// reservation is held. A non-nil *OverloadError means nothing was reserved:
// the request is shed and the counters record why.
func (a *admission) admit(vp, payload int) *OverloadError {
	start := time.Now()
	o := a.opts
	a.mu.Lock()
	st := a.vps[vp]
	if st == nil {
		st = &vpAdmission{tokens: o.burst(), last: a.clock()}
		a.vps[vp] = st
	}

	var oe *OverloadError
	switch {
	case o.MaxQueuedBytes > 0 && int64(payload) > o.MaxQueuedBytes:
		// Larger than the whole quota: no amount of retrying admits it.
		oe = &OverloadError{VP: vp, Reason: "payload", Retryable: false}
	case o.MaxQueuedJobs > 0 && st.jobs >= o.MaxQueuedJobs:
		oe = &OverloadError{VP: vp, Reason: "vp-jobs", Backoff: DefaultRetryAfter, Retryable: true}
	case o.MaxQueuedBytes > 0 && st.bytes+int64(payload) > o.MaxQueuedBytes:
		oe = &OverloadError{VP: vp, Reason: "vp-bytes", Backoff: DefaultRetryAfter, Retryable: true}
	case o.DeviceMaxQueuedJobs > 0 && a.devJobs >= o.DeviceMaxQueuedJobs:
		oe = &OverloadError{VP: vp, Reason: "device-jobs", Backoff: DefaultRetryAfter, Retryable: true}
	case o.DeviceMaxQueuedBytes > 0 && a.devBytes+int64(payload) > o.DeviceMaxQueuedBytes:
		oe = &OverloadError{VP: vp, Reason: "device-bytes", Backoff: DefaultRetryAfter, Retryable: true}
	}
	throttled := false
	if oe == nil && o.Rate > 0 {
		nowT := a.clock()
		st.tokens += nowT.Sub(st.last).Seconds() * o.Rate
		if b := o.burst(); st.tokens > b {
			st.tokens = b
		}
		st.last = nowT
		if st.tokens < 1 {
			backoff := time.Duration((1 - st.tokens) / o.Rate * float64(time.Second))
			if backoff <= 0 {
				backoff = time.Millisecond
			}
			oe = &OverloadError{VP: vp, Reason: "rate", Backoff: backoff, Retryable: true}
			throttled = true
		} else {
			st.tokens--
		}
	}
	if oe == nil {
		st.jobs++
		st.bytes += int64(payload)
		a.devJobs++
		a.devBytes += int64(payload)
		a.peakJobs, a.peakBytes = max(a.peakJobs, a.devJobs), max(a.peakBytes, a.devBytes)
		a.publish()
	}
	a.mu.Unlock()

	if oe == nil {
		a.reg.Counter("core.admission.admitted").Inc()
		return nil
	}
	if throttled {
		a.reg.Counter("core.admission.throttled").Inc()
	}
	a.reg.Counter("core.admission.shed").Inc()
	a.reg.Counter("core.admission.shed." + oe.Reason).Inc()
	// The shed path must stay fast — it runs instead of parking an IPC
	// worker. The histogram records how long each rejected caller was held.
	a.reg.Histogram("core.admission.shed_latency_s", metrics.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	return oe
}

// release returns one admitted job's reservation. Must be called exactly
// once per successful admit: the dispatcher releases on completion, the
// disconnect path on cancellation.
func (a *admission) release(vp, payload int) {
	a.mu.Lock()
	if st := a.vps[vp]; st != nil {
		st.jobs--
		st.bytes -= int64(payload)
	}
	a.devJobs--
	a.devBytes -= int64(payload)
	a.publish()
	a.mu.Unlock()
}

// publish sets the queue gauges to the device totals. Caller holds a.mu: a
// gauge published outside the lock could land after a newer reservation's,
// and read above a cap the reservations never exceeded.
func (a *admission) publish() {
	a.reg.Gauge("core.admission.queue_jobs").Set(int64(a.devJobs))
	a.reg.Gauge("core.admission.queue_bytes").Set(a.devBytes)
}

// highWater returns the highest device-wide reservation totals (jobs, bytes)
// the gate has held.
func (a *admission) highWater() (int, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peakJobs, a.peakBytes
}

// load returns the device-wide reservation totals (jobs, bytes).
func (a *admission) load() (int, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.devJobs, a.devBytes
}
