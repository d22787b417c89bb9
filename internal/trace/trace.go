// Package trace records engine-level timelines of simulated GPU activity and
// renders them as text Gantt charts — the visual evidence for Kernel
// Interleaving (paper Fig. 3): with a good submission order, the Copy Engine
// and the Compute Engine rows overlap instead of alternating.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Record is one operation on one engine.
type Record struct {
	Engine string  // "copy" or "compute"
	Stream int     // stream / VP the op belongs to
	Label  string  // e.g. "H2D 2.4MB", "matrixMul"
	Start  float64 // seconds
	End    float64 // seconds
}

// Duration returns the op length in seconds.
func (r Record) Duration() float64 { return r.End - r.Start }

// Log collects records. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	recs []Record
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends a record.
func (l *Log) Add(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
}

// Records returns a copy of the records sorted by (Start, Engine, Stream,
// Label, End). The sort is stable over the full key: records that tie on
// start time and engine — common for coalesced and zero-duration ops — land
// in a deterministic order regardless of insertion interleaving, so Gantt and
// CSV renderings are reproducible.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]Record(nil), l.recs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.End < b.End
	})
	return out
}

// Merge combines several per-device logs into one multi-device view. Each
// log's records are re-labeled with its name ("gpu0/compute", "gpu1/h2d"…)
// so per-device rows stay distinct in Gantt charts and Utilization. Nil logs
// (devices with tracing off) are skipped; names beyond the logs slice (or an
// empty name) fall back to a positional "gpuN" label. The merged log is a
// deep copy — mutating it never touches the sources.
func Merge(names []string, logs ...*Log) *Log {
	out := New()
	for i, l := range logs {
		if l == nil {
			continue
		}
		name := ""
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = fmt.Sprintf("gpu%d", i)
		}
		for _, r := range l.Records() {
			r.Engine = name + "/" + r.Engine
			out.Add(r)
		}
	}
	return out
}

// Span returns the [min start, max end] of all records.
func (l *Log) Span() (float64, float64) {
	recs := l.Records()
	if len(recs) == 0 {
		return 0, 0
	}
	start, end := math.Inf(1), math.Inf(-1)
	for _, r := range recs {
		start = math.Min(start, r.Start)
		end = math.Max(end, r.End)
	}
	return start, end
}

// Utilization returns, per engine, the fraction of the overall span the
// engine was busy. Overlapping records on one engine are merged into disjoint
// busy intervals before dividing by the span, so utilization never exceeds
// 1.0 (summing raw durations double-counted overlap).
func (l *Log) Utilization() map[string]float64 {
	start, end := l.Span()
	span := end - start
	out := map[string]float64{}
	if span <= 0 {
		return out
	}
	perEngine := map[string][]Record{}
	for _, r := range l.Records() { // sorted by Start
		perEngine[r.Engine] = append(perEngine[r.Engine], r)
	}
	for eng, recs := range perEngine {
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

// Gantt renders the log as a fixed-width text chart, one row per engine,
// with stream numbers as the bar fill.
func (l *Log) Gantt(width int) string {
	if width < 20 {
		width = 20
	}
	recs := l.Records()
	if len(recs) == 0 {
		return "(empty trace)\n"
	}
	start, end := l.Span()
	span := end - start
	if span <= 0 {
		span = 1
	}
	engines := map[string][]Record{}
	var names []string
	for _, r := range recs {
		if _, ok := engines[r.Engine]; !ok {
			names = append(names, r.Engine)
		}
		engines[r.Engine] = append(engines[r.Engine], r)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "span %.3f ms\n", span*1e3)
	for _, name := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, r := range engines[name] {
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
