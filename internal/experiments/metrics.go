package experiments

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/hostgpu"
	"repro/internal/metrics"
)

// The harness-wide registry. Every device an experiment builds is attached to
// it (see newGPU), so one study run accumulates one observable snapshot —
// what `sigmavp -metrics <file>` dumps. All recorded quantities are derived
// from simulated time and combined commutatively, so the snapshot is
// byte-identical for any -workers value.

var (
	metricsMu  sync.RWMutex
	metricsReg = metrics.New()
)

// SetMetrics replaces the harness registry (nil installs a fresh one).
func SetMetrics(m *metrics.Registry) {
	if m == nil {
		m = metrics.New()
	}
	metricsMu.Lock()
	defer metricsMu.Unlock()
	metricsReg = m
}

// Metrics returns the harness registry; never nil.
func Metrics() *metrics.Registry {
	metricsMu.RLock()
	defer metricsMu.RUnlock()
	return metricsReg
}

// timingGPU builds a timing-only host GPU (hostgpu.NewTimingOnly) wired to the
// harness registry. Experiments create their bare devices through this so
// every cell's activity lands in the shared snapshot.
func timingGPU(a arch.GPU, memBytes int64) *hostgpu.GPU {
	g := hostgpu.NewTimingOnly(a, memBytes)
	g.Metrics = Metrics()
	return g
}
