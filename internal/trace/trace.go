// Package trace records engine-level timelines of simulated GPU activity and
// renders them as text Gantt charts — the visual evidence for Kernel
// Interleaving (paper Fig. 3): with a good submission order, the Copy Engine
// and the Compute Engine rows overlap instead of alternating.
//
// The timeline is also the job trace: each op record names the job's VP and
// its submit and plan times, and what happened to a job outside any engine
// (refused by the device, cancelled by a disconnect, its VP migrated) is a
// record of its own kind, as is a kernel job's estimate for an embedded
// target (paper Fig. 2). A Log keeps the newest Capacity records and counts
// the ones it dropped, so a daemon that serves forever holds a bounded
// timeline.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Record kinds.
const (
	KindOp        = "op"        // one op on one engine
	KindFailed    = "failed"    // a job the device refused: Err says why, no engine time
	KindCancelled = "cancelled" // a job orphaned by its VP's disconnect, never run
	KindMigrated  = "migrated"  // a VP context arrived on this device
	KindEstimate  = "estimate"  // a kernel job's target estimate, no engine time
)

// Record is one entry of the timeline: an op on one engine, or (Kind) a job
// event that took no engine time. All times are simulated seconds; an
// estimate's target numbers are the other device's, not this timeline's.
type Record struct {
	Engine string  `json:"engine"` // "h2d", "d2h", "compute", "migrate"
	Stream int     `json:"stream"` // device stream the op ran on
	Label  string  `json:"label"`  // e.g. "H2D 4096B", "matrixMul"
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Kind   string  `json:"kind"`
	VP     int     `json:"vp"` // the job's VP; -1 for a merged launch
	// Submit and Plan are the device's engine frontier when the job entered
	// the service queue and when its batch was planned, so Submit ≤ Plan.
	// Neither bounds Start: an op on an idle engine can start before either.
	Submit float64 `json:"submit"`
	Plan   float64 `json:"plan"`
	Err    string  `json:"err,omitempty"`
	// HostSec, TargetSec and TargetW are a KindEstimate record's numbers
	// (paper Fig. 2, Section 4): the kernel's profiled time on this device,
	// and the target's C″ time (Eq. 5) and power (Eq. 6).
	HostSec   float64 `json:"host_sec,omitempty"`
	TargetSec float64 `json:"target_sec,omitempty"`
	TargetW   float64 `json:"target_w,omitempty"`
}

// Duration returns the op length in seconds.
func (r Record) Duration() float64 { return r.End - r.Start }

// busy reports whether the record spans engine time, which is what Span,
// Utilization and Gantt draw: a refused or cancelled job never ran, and an
// estimate is about another device.
func (r Record) busy() bool {
	return r.Kind != KindFailed && r.Kind != KindCancelled && r.Kind != KindEstimate
}

// compare is the canonical order: (Start, Engine, Stream, Label, End), then
// the job fields. The key is the whole record, so any insertion interleaving
// of the same records sorts to the same sequence.
func (r Record) compare(o Record) int {
	return cmp.Or(
		cmp.Compare(r.Start, o.Start), strings.Compare(r.Engine, o.Engine),
		cmp.Compare(r.Stream, o.Stream), strings.Compare(r.Label, o.Label),
		cmp.Compare(r.End, o.End), cmp.Compare(r.VP, o.VP),
		strings.Compare(r.Kind, o.Kind), cmp.Compare(r.Submit, o.Submit),
		cmp.Compare(r.Plan, o.Plan), strings.Compare(r.Err, o.Err),
		cmp.Compare(r.HostSec, o.HostSec), cmp.Compare(r.TargetSec, o.TargetSec),
		cmp.Compare(r.TargetW, o.TargetW),
	)
}

// Capacity is how many records a Log keeps. A finite study records far fewer
// and keeps all of them; a long-running daemon keeps the newest Capacity.
const Capacity = 1 << 16

// Log collects records in a ring of Capacity entries. It is safe for
// concurrent use.
type Log struct {
	mu      sync.Mutex
	recs    []Record // grows to Capacity, then is overwritten oldest first
	next    int      // the oldest record once the ring is full
	dropped int64
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends a record, overwriting the oldest one when the log is full.
func (l *Log) Add(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) < Capacity {
		l.recs = append(l.recs, r)
		return
	}
	l.recs[l.next] = r
	l.next = (l.next + 1) % Capacity
	l.dropped++
}

// Timeline is a sorted read of one or more logs: the records they keep, in
// canonical order, and how many older ones they dropped. Span, Utilization
// and Gantt all work from it, so a view sorts once.
type Timeline struct {
	Records []Record `json:"records"`
	Dropped int64    `json:"dropped"`
}

// Timeline returns a sorted copy of the log.
func (l *Log) Timeline() Timeline {
	var t Timeline
	l.appendTo(&t, "")
	t.sort()
	return t
}

// appendTo copies the log's records into t, each engine prefixed.
func (l *Log) appendTo(t *Timeline, prefix string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		r.Engine = prefix + r.Engine
		t.Records = append(t.Records, r)
	}
	t.Dropped += l.dropped
}

func (t *Timeline) sort() { slices.SortFunc(t.Records, Record.compare) }

// Merge combines per-device logs into one multi-device view. Log i's engines
// are re-labeled "gpu<i>/<engine>" ("gpu0/compute", "gpu1/h2d"…) so
// per-device rows stay distinct in Gantt charts and Utilization. Nil logs
// (devices with tracing off) are skipped. Returns nil when every log is nil;
// an empty merge has non-nil Records, so it renders as [].
func Merge(logs ...*Log) *Timeline {
	var t *Timeline
	for i, l := range logs {
		if l == nil {
			continue
		}
		if t == nil {
			t = &Timeline{Records: []Record{}}
		}
		l.appendTo(t, "gpu"+strconv.Itoa(i)+"/")
	}
	if t != nil {
		t.sort()
	}
	return t
}

// Span returns the [min start, max end] of the records that span engine
// time.
func (t Timeline) Span() (float64, float64) {
	start, end := math.Inf(1), math.Inf(-1)
	for _, r := range t.Records {
		if r.busy() {
			start = math.Min(start, r.Start)
			end = math.Max(end, r.End)
		}
	}
	if start > end {
		return 0, 0
	}
	return start, end
}

// engines groups the busy records by engine, each group in timeline order,
// and returns the engine names sorted.
func (t Timeline) engines() (map[string][]Record, []string) {
	per := map[string][]Record{}
	var names []string
	for _, r := range t.Records {
		if !r.busy() {
			continue
		}
		if _, ok := per[r.Engine]; !ok {
			names = append(names, r.Engine)
		}
		per[r.Engine] = append(per[r.Engine], r)
	}
	sort.Strings(names)
	return per, names
}

// Utilization returns, per engine, the fraction of the overall span the
// engine was busy. Overlapping records on one engine are merged into disjoint
// busy intervals before dividing by the span, so utilization never exceeds
// 1.0 (summing raw durations double-counted overlap).
func (t Timeline) Utilization() map[string]float64 {
	start, end := t.Span()
	span := end - start
	out := map[string]float64{}
	if span <= 0 {
		return out
	}
	per, _ := t.engines()
	for eng, recs := range per {
		busy := 0.0
		curStart, curEnd := recs[0].Start, recs[0].End
		for _, r := range recs[1:] {
			if r.Start > curEnd {
				busy += curEnd - curStart
				curStart, curEnd = r.Start, r.End
			} else if r.End > curEnd {
				curEnd = r.End
			}
		}
		busy += curEnd - curStart
		out[eng] = busy / span
	}
	return out
}

// Gantt renders the timeline as a fixed-width text chart, one row per engine,
// with stream numbers as the bar fill.
func (t Timeline) Gantt(width int) string {
	if width < 20 {
		width = 20
	}
	per, names := t.engines()
	if len(names) == 0 {
		return "(empty trace)\n"
	}
	start, end := t.Span()
	span := end - start
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "span %.3f ms\n", span*1e3)
	for _, name := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, r := range per[name] {
			lo := int(float64(width) * (r.Start - start) / span)
			if lo >= width {
				// A zero-duration record at the exact span end still gets one
				// visible cell (the last one) instead of vanishing.
				lo = width - 1
			}
			hi := int(float64(width) * (r.End - start) / span)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			mark := byte('0' + r.Stream%10)
			for i := lo; i < hi; i++ {
				row[i] = mark
			}
		}
		fmt.Fprintf(&b, "%-8s |%s|\n", name, row)
	}
	return b.String()
}
