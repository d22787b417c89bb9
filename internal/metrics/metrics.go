// Package metrics is the ΣVP observability layer: a dependency-free registry
// of named counters, gauges, and fixed-bucket histograms. Per-job history is
// not kept here: it is the bounded simulated timeline of package trace, which
// a device records only when tracing is on. Every subsystem of the stack — the
// host service, the Re-scheduler, the host-GPU device model, the IPC
// transport, and the emulation baseline — records into a registry, and the
// CLIs expose snapshots (`sigmavp -metrics`, `sigmavpd /metrics`).
//
// # Determinism contract
//
// A Snapshot must be byte-identical for a given seed and workload regardless
// of how many worker goroutines executed it (the `-workers` knob). The
// registry guarantees this by construction:
//
//   - Counters and gauges are int64 and only combined with commutative
//     addition, so any interleaving of Add calls yields the same final value.
//   - Histogram observations land in fixed buckets (integer counts) and the
//     running sum is accumulated in integer nanounits — float64 addition is
//     not associative, so summing seconds directly would make the last bits
//     of the total depend on goroutine interleaving.
//   - Snapshot sorts every family by name, so insertion order (which IS
//     interleaving-dependent) never reaches the output.
//
// Instrumented code must only feed the registry values that are themselves
// deterministic — simulated time, not wall-clock time.
//
// The contract binds the simulated domain. Host families — wall-clock
// counters named by prefix — are exempt and left out of the owner's Snapshot,
// which reads the simulated domain with Without and the host one with Select.
//
// All methods are safe for concurrent use, and all registry accessors are
// nil-receiver-safe: a nil *Registry hands out shared no-op instruments, so
// instrumentation sites need no nil guards.
package metrics

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value. For deterministic snapshots, prefer
// the commutative Add/Sub over Set (last-write-wins depends on interleaving).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Sub moves the gauge down by n.
func (g *Gauge) Sub(n int64) { g.v.Add(-n) }

// Set overwrites the gauge. Only use where a single writer exists.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. An observation v lands in
// the first bucket whose upper bound is >= v; values above every bound land
// in the overflow bucket. The sum is accumulated in integer nanounits
// (round(v*1e9)) so concurrent observation order cannot perturb it.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; fixed at creation
	buckets []atomic.Int64
	count   atomic.Int64
	sumNano atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(math.Round(v * 1e9)))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the observation total, reconstructed from nanounits.
func (h *Histogram) Sum() float64 { return float64(h.sumNano.Load()) / 1e9 }

// Common bucket layouts.
var (
	// LatencyBuckets spans simulated latencies in seconds, 1µs to 10s.
	LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	// CountBuckets spans small integer observations (reorder distances,
	// occupancies, batch sizes).
	CountBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}
	// DepthBuckets spans in-flight depths (pipelined requests per
	// connection, queue occupancy): 1 means no overlap, the tail the
	// worker-pool bound and beyond.
	DepthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
)

// Registry is a named family of instruments.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Shared sinks handed out by nil registries: the writes are harmless and the
// values are never read.
var (
	nopCounter Counter
	nopGauge   Gauge
	nopHist    = &Histogram{buckets: make([]atomic.Int64, 1)}
)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &nopCounter
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &nopGauge
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later calls reuse the existing instrument — the
// bounds of the first caller win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nopHist
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// --- Snapshot ---

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnap is one histogram bucket: the count of observations <= LE that
// did not fit an earlier bucket.
type BucketSnap struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnap is one histogram in a snapshot. Overflow counts observations
// above the last bound (kept out of Buckets because JSON cannot carry +Inf).
type HistogramSnap struct {
	Name     string       `json:"name"`
	Buckets  []BucketSnap `json:"buckets"`
	Overflow int64        `json:"overflow"`
	Count    int64        `json:"count"`
	Sum      float64      `json:"sum"`
}

// Snapshot is a point-in-time, deterministic view of a registry: every family
// sorted by name.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
	// Events is always empty and never rendered: the benchmark module still
	// reads its length, and goes with it at the next benchmark change.
	Events []struct{} `json:"-"`
}

// Snapshot captures the registry. The result is JSON-marshalable and, per the
// package determinism contract, byte-identical for identical workloads
// regardless of goroutine interleaving.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(nil, false) }

// Select captures the instruments whose names start with one of the
// prefixes.
func (r *Registry) Select(prefixes ...string) Snapshot { return r.snapshot(prefixes, true) }

// Without captures every instrument whose name starts with none of the
// prefixes: the simulated domain beside host families.
func (r *Registry) Without(prefixes ...string) Snapshot { return r.snapshot(prefixes, false) }

// snapshot captures the instruments whose "has one of prefixes" equals in. A
// family with nothing kept stays nil.
func (r *Registry) snapshot(prefixes []string, in bool) Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	keep := func(name string) bool {
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) }) == in
	}
	r.mu.RLock()
	for name, c := range r.counters {
		if keep(name) {
			s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
		}
	}
	for name, g := range r.gauges {
		if keep(name) {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
		}
	}
	for name, h := range r.hists {
		if !keep(name) {
			continue
		}
		hs := HistogramSnap{Name: name, Count: h.Count(), Sum: h.Sum()}
		for i, b := range h.bounds {
			hs.Buckets = append(hs.Buckets, BucketSnap{LE: b, Count: h.buckets[i].Load()})
		}
		hs.Overflow = h.buckets[len(h.bounds)].Load()
		s.Histograms = append(s.Histograms, hs)
	}
	r.mu.RUnlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Prefixed returns a copy of the snapshot with every instrument renamed
// prefix+name — the namespacing the multi-GPU service uses to keep one
// device's counters from colliding with another's ("gpu0.hostgpu.ops.compute"
// vs "gpu1.…").
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{
		Counters:   make([]CounterSnap, len(s.Counters)),
		Gauges:     make([]GaugeSnap, len(s.Gauges)),
		Histograms: make([]HistogramSnap, len(s.Histograms)),
	}
	for i, c := range s.Counters {
		out.Counters[i] = CounterSnap{Name: prefix + c.Name, Value: c.Value}
	}
	for i, g := range s.Gauges {
		out.Gauges[i] = GaugeSnap{Name: prefix + g.Name, Value: g.Value}
	}
	for i, h := range s.Histograms {
		hs := HistogramSnap{
			Name: prefix + h.Name, Overflow: h.Overflow, Count: h.Count, Sum: h.Sum,
			Buckets: append([]BucketSnap(nil), h.Buckets...),
		}
		out.Histograms[i] = hs
	}
	return out
}

// MergeSnapshots combines snapshots into one deterministic view: same-named
// counters and gauges sum, same-named histograms merge bucket-wise (bucket
// layouts are required to match, which they do for instruments created by the
// same code path; on a mismatch the first layout wins and only Count/Sum/
// Overflow accumulate). Input order therefore never reaches the output.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	counters := map[string]int64{}
	gauges := map[string]int64{}
	hists := map[string]*HistogramSnap{}
	var out Snapshot
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gauges[g.Name] += g.Value
		}
		for _, h := range s.Histograms {
			m, ok := hists[h.Name]
			if !ok {
				cp := h
				cp.Buckets = append([]BucketSnap(nil), h.Buckets...)
				hists[h.Name] = &cp
				continue
			}
			m.Count += h.Count
			m.Sum += h.Sum
			m.Overflow += h.Overflow
			if len(m.Buckets) == len(h.Buckets) {
				same := true
				for i := range m.Buckets {
					if m.Buckets[i].LE != h.Buckets[i].LE {
						same = false
						break
					}
				}
				if same {
					for i := range m.Buckets {
						m.Buckets[i].Count += h.Buckets[i].Count
					}
				}
			}
		}
	}
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterSnap{Name: name, Value: v})
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, GaugeSnap{Name: name, Value: v})
	}
	for name, h := range hists {
		hs := *h
		hs.Name = name
		out.Histograms = append(out.Histograms, hs)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// CounterValue returns the named counter's value in the snapshot, 0 if absent
// (convenience for report summaries).
func (s Snapshot) CounterValue(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
