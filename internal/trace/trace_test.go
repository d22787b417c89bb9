package trace

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func sampleLog() *Log {
	l := New()
	l.Add(Record{Engine: "copy", Stream: 1, Label: "H2D", Start: 0, End: 1})
	l.Add(Record{Engine: "compute", Stream: 1, Label: "k", Start: 1, End: 3})
	l.Add(Record{Engine: "copy", Stream: 2, Label: "H2D", Start: 1, End: 2})
	return l
}

func TestRecordsSorted(t *testing.T) {
	l := sampleLog()
	recs := l.Timeline().Records
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatal("records not sorted")
		}
	}
	if recs[0].Duration() != 1 {
		t.Errorf("Duration = %v", recs[0].Duration())
	}
}

func TestSpanAndUtilization(t *testing.T) {
	l := sampleLog()
	start, end := l.Timeline().Span()
	if start != 0 || end != 3 {
		t.Fatalf("span = [%v, %v]", start, end)
	}
	u := l.Timeline().Utilization()
	if u["copy"] != 2.0/3.0 {
		t.Errorf("copy utilization = %v", u["copy"])
	}
	if u["compute"] != 2.0/3.0 {
		t.Errorf("compute utilization = %v", u["compute"])
	}
	empty := New()
	if s, e := empty.Timeline().Span(); s != 0 || e != 0 {
		t.Error("empty span should be zero")
	}
	if len(empty.Timeline().Utilization()) != 0 {
		t.Error("empty utilization should be empty")
	}
}

func TestGanttRendering(t *testing.T) {
	l := sampleLog()
	s := l.Timeline().Gantt(40)
	if !strings.Contains(s, "copy") || !strings.Contains(s, "compute") {
		t.Fatalf("Gantt missing engines:\n%s", s)
	}
	if !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Fatalf("Gantt missing stream marks:\n%s", s)
	}
	if got := New().Timeline().Gantt(40); !strings.Contains(got, "empty") {
		t.Errorf("empty Gantt = %q", got)
	}
	// Tiny width clamps without panicking.
	if s := l.Timeline().Gantt(1); s == "" {
		t.Error("tiny width Gantt empty")
	}
}

// TestRecordsDeterministicOrder pins the full (Start, Engine, Stream, Label,
// End) sort key: records tying on start and engine — coalesced or
// zero-duration ops — must come back in the same order no matter the
// insertion order. The old sort.Slice with a (Start, Engine) key rendered
// them nondeterministically.
func TestRecordsDeterministicOrder(t *testing.T) {
	recs := []Record{
		{Engine: "compute", Stream: 2, Label: "b", Start: 1, End: 1},
		{Engine: "compute", Stream: 1, Label: "b", Start: 1, End: 1},
		{Engine: "compute", Stream: 1, Label: "a", Start: 1, End: 2},
		{Engine: "compute", Stream: 1, Label: "a", Start: 1, End: 1},
		{Engine: "copy", Stream: 3, Label: "c", Start: 1, End: 1},
	}
	want := []Record{
		{Engine: "compute", Stream: 1, Label: "a", Start: 1, End: 1},
		{Engine: "compute", Stream: 1, Label: "a", Start: 1, End: 2},
		{Engine: "compute", Stream: 1, Label: "b", Start: 1, End: 1},
		{Engine: "compute", Stream: 2, Label: "b", Start: 1, End: 1},
		{Engine: "copy", Stream: 3, Label: "c", Start: 1, End: 1},
	}
	// Forward insertion and reverse insertion must both sort to `want`.
	for trial := 0; trial < 2; trial++ {
		l := New()
		if trial == 0 {
			for _, r := range recs {
				l.Add(r)
			}
		} else {
			for i := len(recs) - 1; i >= 0; i-- {
				l.Add(recs[i])
			}
		}
		got := l.Timeline().Records
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d record %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestUtilizationOverlapMerged: overlapping records on one engine
// must merge before dividing by span — raw duration sums reported >100%.
func TestUtilizationOverlapMerged(t *testing.T) {
	l := New()
	l.Add(Record{Engine: "compute", Stream: 1, Label: "k1", Start: 0, End: 2})
	l.Add(Record{Engine: "compute", Stream: 2, Label: "k2", Start: 1, End: 3})
	u := l.Timeline().Utilization()
	if u["compute"] > 1.0 {
		t.Fatalf("compute utilization = %v, want <= 1.0", u["compute"])
	}
	if u["compute"] != 1.0 {
		t.Errorf("compute utilization = %v, want 1.0 (busy whole span)", u["compute"])
	}

	// Overlap with an idle gap: [0,2) ∪ [1,3) ∪ [5,6) over span 6 → 4/6.
	l.Add(Record{Engine: "compute", Stream: 1, Label: "k3", Start: 5, End: 6})
	u = l.Timeline().Utilization()
	if got, want := u["compute"], 4.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("compute utilization with gap = %v, want %v", got, want)
	}
}

// TestUtilizationNeverExceedsOne is the property form: arbitrary record
// soups, including pathological full-overlap stacks, stay <= 1.0 per engine.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		l := New()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			start := rng.Float64() * 10
			l.Add(Record{
				Engine: []string{"h2d", "compute", "d2h"}[rng.Intn(3)],
				Stream: rng.Intn(4),
				Label:  "op",
				Start:  start,
				End:    start + rng.Float64()*5,
			})
		}
		for eng, u := range l.Timeline().Utilization() {
			if u > 1.0+1e-12 {
				t.Fatalf("trial %d: %s utilization = %v > 1.0", trial, eng, u)
			}
		}
	}
}

// Golden-output Gantt tests: the metrics/trace refactor must not silently
// change rendering.
func TestGanttGolden(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if got := New().Timeline().Gantt(40); got != "(empty trace)\n" {
			t.Fatalf("empty Gantt = %q", got)
		}
	})
	t.Run("zero-duration at span end", func(t *testing.T) {
		l := New()
		l.Add(Record{Engine: "compute", Stream: 1, Label: "k", Start: 0, End: 1})
		l.Add(Record{Engine: "compute", Stream: 2, Label: "sync", Start: 1, End: 1})
		want := "span 1000.000 ms\n" +
			"compute  |11111111111111111112|\n"
		if got := l.Timeline().Gantt(20); got != want {
			t.Fatalf("Gantt =\n%q\nwant\n%q", got, want)
		}
	})
	t.Run("width clamped to 20", func(t *testing.T) {
		l := New()
		l.Add(Record{Engine: "compute", Stream: 3, Label: "k", Start: 0, End: 1})
		want := "span 1000.000 ms\n" +
			"compute  |33333333333333333333|\n"
		if got := l.Timeline().Gantt(5); got != want {
			t.Fatalf("Gantt =\n%q\nwant\n%q", got, want)
		}
	})
	t.Run("two engines sorted rows", func(t *testing.T) {
		l := New()
		l.Add(Record{Engine: "h2d", Stream: 1, Label: "c", Start: 0, End: 1})
		l.Add(Record{Engine: "compute", Stream: 2, Label: "k", Start: 1, End: 2})
		want := "span 2000.000 ms\n" +
			"compute  |..........2222222222|\n" +
			"h2d      |1111111111..........|\n"
		if got := l.Timeline().Gantt(20); got != want {
			t.Fatalf("Gantt =\n%q\nwant\n%q", got, want)
		}
	})
}

// TestEventCanonicalOrder: the job fields are part of the sort key, so
// records that tie on (Start, Engine, Stream, Label, End) — the ops of
// different VPs' jobs, or a job's op beside its refusal — sort to the same
// sequence whatever order they were added in, and the first five keys still
// decide first.
func TestEventCanonicalOrder(t *testing.T) {
	recs := []Record{
		{Kind: KindOp, VP: 1, Engine: "compute", Label: "k", Start: 1, End: 2, Submit: 0.5, Plan: 1},
		{Kind: KindOp, VP: 0, Engine: "compute", Label: "k", Start: 1, End: 2, Submit: 0.5, Plan: 1},
		{Kind: KindFailed, VP: 0, Engine: "compute", Label: "k", Start: 1, End: 2, Err: "refused"},
		{Kind: KindOp, VP: 0, Engine: "compute", Label: "k", Start: 1, End: 2, Submit: 0.25, Plan: 1},
		{Kind: KindCancelled, VP: 2, Engine: "h2d", Label: "c", Start: 0, End: 0},
		{Kind: KindEstimate, VP: 3, Engine: "compute", Label: "k", Start: 3, End: 3, TargetSec: 2, TargetW: 1},
		{Kind: KindEstimate, VP: 3, Engine: "compute", Label: "k", Start: 3, End: 3, TargetSec: 1, TargetW: 2},
	}
	fwd, rev := New(), New()
	for i := range recs {
		fwd.Add(recs[i])
		rev.Add(recs[len(recs)-1-i])
	}
	a, b := fwd.Timeline().Records, rev.Timeline().Records
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("order depends on insertion:\n%+v\n%+v", a, b)
	}
	if a[0].Kind != KindCancelled { // Start 0 first
		t.Errorf("sort by start broken: %+v", a[0])
	}
	if a[1].VP != 0 || a[1].Kind != KindFailed || a[2].Submit != 0.25 || a[3].Submit != 0.5 || a[4].VP != 1 {
		t.Errorf("full-record sort broken: %+v", a)
	}
	if a[5].TargetSec != 1 || a[6].TargetSec != 2 {
		t.Errorf("estimates tying on every other field not ordered by their numbers: %+v", a[5:])
	}
}

// TestLogRingWraps: a log keeps the newest Capacity records and counts the
// ones it overwrote; until it wraps it keeps every record and drops none.
func TestLogRingWraps(t *testing.T) {
	l := New()
	for i := 0; i < Capacity; i++ {
		l.Add(Record{Kind: KindOp, Engine: "compute", Start: float64(i), End: float64(i)})
	}
	if tl := l.Timeline(); len(tl.Records) != Capacity || tl.Dropped != 0 || tl.Records[0].Start != 0 {
		t.Fatalf("full log: %d records, %d dropped, first at %v", len(tl.Records), tl.Dropped, tl.Records[0].Start)
	}
	const extra = 5
	for i := Capacity; i < Capacity+extra; i++ {
		l.Add(Record{Kind: KindOp, Engine: "compute", Start: float64(i), End: float64(i)})
	}
	tl := l.Timeline()
	if len(tl.Records) != Capacity || tl.Dropped != extra {
		t.Fatalf("wrapped log: %d records, %d dropped; want %d, %d", len(tl.Records), tl.Dropped, Capacity, extra)
	}
	if first, last := tl.Records[0].Start, tl.Records[Capacity-1].Start; first != extra || last != Capacity+extra-1 {
		t.Fatalf("wrapped log spans [%v, %v], want the newest [%d, %d]", first, last, extra, Capacity+extra-1)
	}
	if m := Merge(l, nil, l); m.Dropped != 2*extra || len(m.Records) != 2*Capacity {
		t.Fatalf("merge of two wrapped logs: %d records, %d dropped", len(m.Records), m.Dropped)
	}
}

// TestMarksOutsideEngineTime: a refused or cancelled job, or a kernel's
// target estimate, is a record of the timeline but took no engine time, so
// Span, Utilization and Gantt leave it out; a migration arrival, like an op,
// is drawn.
func TestMarksOutsideEngineTime(t *testing.T) {
	l := sampleLog()
	want := l.Timeline()
	l.Add(Record{Kind: KindFailed, Engine: "compute", Stream: 4, Start: 5, End: 5, Err: "refused"})
	l.Add(Record{Kind: KindCancelled, Engine: "h2d", Stream: 4, Start: 6, End: 6, Err: "cancelled"})
	l.Add(Record{Kind: KindEstimate, Engine: "compute", Stream: 4, Start: 7, End: 7, HostSec: 1, TargetSec: 8, TargetW: 2})
	got := l.Timeline()
	if len(got.Records) != len(want.Records)+3 {
		t.Fatalf("%d records, want %d", len(got.Records), len(want.Records)+3)
	}
	if gs, ge := got.Span(); gs != 0 || ge != 3 {
		t.Errorf("span [%v, %v] counts the marks", gs, ge)
	}
	if got.Gantt(40) != want.Gantt(40) || !reflect.DeepEqual(got.Utilization(), want.Utilization()) {
		t.Errorf("marks reach the chart:\n%s", got.Gantt(40))
	}
	l.Add(Record{Kind: KindMigrated, Engine: "migrate", Start: 4, End: 4})
	if _, e := l.Timeline().Span(); e != 4 {
		t.Errorf("migration arrival left out of the span: end %v", e)
	}
}
