package trace

import (
	"math"
	"math/rand"
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
	recs := l.Records()
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
	start, end := l.Span()
	if start != 0 || end != 3 {
		t.Fatalf("span = [%v, %v]", start, end)
	}
	u := l.Utilization()
	if u["copy"] != 2.0/3.0 {
		t.Errorf("copy utilization = %v", u["copy"])
	}
	if u["compute"] != 2.0/3.0 {
		t.Errorf("compute utilization = %v", u["compute"])
	}
	empty := New()
	if s, e := empty.Span(); s != 0 || e != 0 {
		t.Error("empty span should be zero")
	}
	if len(empty.Utilization()) != 0 {
		t.Error("empty utilization should be empty")
	}
}

func TestGanttRendering(t *testing.T) {
	l := sampleLog()
	s := l.Gantt(40)
	if !strings.Contains(s, "copy") || !strings.Contains(s, "compute") {
		t.Fatalf("Gantt missing engines:\n%s", s)
	}
	if !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Fatalf("Gantt missing stream marks:\n%s", s)
	}
	if got := New().Gantt(40); !strings.Contains(got, "empty") {
		t.Errorf("empty Gantt = %q", got)
	}
	// Tiny width clamps without panicking.
	if s := l.Gantt(1); s == "" {
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
		got := l.Records()
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
	u := l.Utilization()
	if u["compute"] > 1.0 {
		t.Fatalf("compute utilization = %v, want <= 1.0", u["compute"])
	}
	if u["compute"] != 1.0 {
		t.Errorf("compute utilization = %v, want 1.0 (busy whole span)", u["compute"])
	}

	// Overlap with an idle gap: [0,2) ∪ [1,3) ∪ [5,6) over span 6 → 4/6.
	l.Add(Record{Engine: "compute", Stream: 1, Label: "k3", Start: 5, End: 6})
	u = l.Utilization()
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
		for eng, u := range l.Utilization() {
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
		if got := New().Gantt(40); got != "(empty trace)\n" {
			t.Fatalf("empty Gantt = %q", got)
		}
	})
	t.Run("zero-duration at span end", func(t *testing.T) {
		l := New()
		l.Add(Record{Engine: "compute", Stream: 1, Label: "k", Start: 0, End: 1})
		l.Add(Record{Engine: "compute", Stream: 2, Label: "sync", Start: 1, End: 1})
		want := "span 1000.000 ms\n" +
			"compute  |11111111111111111112|\n"
		if got := l.Gantt(20); got != want {
			t.Fatalf("Gantt =\n%q\nwant\n%q", got, want)
		}
	})
	t.Run("width clamped to 20", func(t *testing.T) {
		l := New()
		l.Add(Record{Engine: "compute", Stream: 3, Label: "k", Start: 0, End: 1})
		want := "span 1000.000 ms\n" +
			"compute  |33333333333333333333|\n"
		if got := l.Gantt(5); got != want {
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
		if got := l.Gantt(20); got != want {
			t.Fatalf("Gantt =\n%q\nwant\n%q", got, want)
		}
	})
}
