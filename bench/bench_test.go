package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestDeclaredEqualsEmitted runs every workload at 1/50 of its work, untraced
// and traced, and checks that what the program emits is what BENCHMARK.json
// declares: the same workloads, the same metric names, well-formed, finite,
// and no failed operation. The traced runs also check that spans nest, because
// a trace that does not nest counts as a failed operation.
func TestDeclaredEqualsEmitted(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	known := []string{"lockstep-timing", "emul-kpl"}
	for name := range wireWorkloads {
		known = append(known, name)
	}
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(known)
	sort.Strings(declared)
	if len(known) != len(declared) {
		t.Fatalf("workloads: program has %v, BENCHMARK.json declares %v", known, declared)
	}
	for i := range known {
		if known[i] != declared[i] {
			t.Fatalf("workloads: program has %v, BENCHMARK.json declares %v", known, declared)
		}
	}
	for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
	}

	layerSeen := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 2, seconds: float64(sp.RunSeconds) / 50, trace: traced, outDir: t.TempDir()}
			o, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if o.failed != 0 || o.attempted < 1 {
				t.Errorf("%s (trace %v): %d failed of %d attempted: %v", w.Name, traced, o.failed, o.attempted, o.notes)
			}
			specs := sp.PerLayer
			if !traced {
				specs = sp.EndToEnd
				o.metrics["peak_rss_mb"] = peakRSSMB()
			}
			// resultOf rejects a measured name that is not declared, an
			// end-to-end metric that was not measured, and NaN or Inf.
			res, err := resultOf(o, specs, !traced)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(specs))
			}
			for name, v := range res.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, v.Value)
				}
				if traced && o.metrics[name] != 0 {
					layerSeen[name] = true
				}
			}
		}
	}
	for _, d := range sp.PerLayer {
		// Counters of things that must not happen read 0 on every workload.
		switch d.Name {
		case "cudart.overload_retries", "core.admission_shed", "core.exec_enqueue_stalls", "core.exec_stall_wait_ms":
			continue
		}
		if !layerSeen[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}

func TestSelfTimesRejectBadNesting(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	good := &tracer{epoch: at(0), vps: []*vpSpans{{}}}
	root := good.add(0, kindLaunch, 1, -1, at(0), at(10))
	call := good.add(0, spanIPC, 1, root, at(1), at(9))
	good.add(0, spanHandle, 1, call, at(2), at(8))
	lt, err := good.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	if lt.requests != 1 || lt.cudartSelf != 2000 || lt.ipcSelf != 2000 || lt.handle != 6000 {
		t.Errorf("self times %+v, want 1 request with 2000/2000/6000 µs", lt)
	}

	bad := &tracer{epoch: at(0), vps: []*vpSpans{{}}}
	root = bad.add(0, kindLaunch, 1, -1, at(0), at(10))
	bad.add(0, spanIPC, 1, root, at(5), at(11))
	if _, err := bad.selfTimes(); err == nil {
		t.Error("a child that outlives its parent was accepted")
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(vs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 || math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
