package profile

import (
	"fmt"
	"strings"

	"repro/internal/arch"
)

// LaunchShape captures the launch geometry that parallelism-sensitive models
// need (grid/block sizes decide the number of concurrent threads, Section 5).
type LaunchShape struct {
	Grid              int // blocks
	Block             int // threads per block
	SharedMemPerBlock int
	RegsPerThread     int
}

// Threads returns the total thread count of the launch.
func (l LaunchShape) Threads() int { return l.Grid * l.Block }

// Profile is the measured outcome of executing one kernel on one GPU.
type Profile struct {
	Kernel string
	Arch   string
	Shape  LaunchShape

	// Sigma is the executed instruction count per class, σ{K,A}.
	Sigma arch.ClassVec

	// Cycles is the elapsed clock cycle count, C{K,A}.
	Cycles float64

	// Breakdown of Cycles as reported by the profiler.
	ComputeCycles   float64 // issue/latency-bound execution
	DataStallCycles float64 // Υ[data]: data-dependency stalls
	OverheadCycles  float64 // launch overhead + wave quantization residue

	// Cache statistics.
	CacheAccesses float64
	CacheMisses   float64

	// Wall outcomes.
	TimeSec float64
	EnergyJ float64
}

// TotalInstr returns σ summed across classes.
func (p *Profile) TotalInstr() float64 { return p.Sigma.Sum() }

// IPC returns achieved instructions per cycle.
func (p *Profile) IPC() float64 {
	if p.Cycles == 0 {
		return 0
	}
	return p.TotalInstr() / p.Cycles
}

// MissRate returns the cache miss ratio.
func (p *Profile) MissRate() float64 {
	if p.CacheAccesses == 0 {
		return 0
	}
	return p.CacheMisses / p.CacheAccesses
}

// PowerW returns the average power of the run.
func (p *Profile) PowerW() float64 {
	if p.TimeSec == 0 {
		return 0
	}
	return p.EnergyJ / p.TimeSec
}

// Add accumulates another profile of the same kernel/arch into p (used to
// aggregate the per-launch profiles of an application run).
func (p *Profile) Add(q *Profile) {
	p.Sigma = p.Sigma.Add(q.Sigma)
	p.Cycles += q.Cycles
	p.ComputeCycles += q.ComputeCycles
	p.DataStallCycles += q.DataStallCycles
	p.OverheadCycles += q.OverheadCycles
	p.CacheAccesses += q.CacheAccesses
	p.CacheMisses += q.CacheMisses
	p.TimeSec += q.TimeSec
	p.EnergyJ += q.EnergyJ
}

// String renders the profile in an nvprof-like layout.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s on %s: %d×%d threads\n", p.Kernel, p.Arch, p.Shape.Grid, p.Shape.Block)
	for _, c := range arch.Classes() {
		if p.Sigma[c] > 0 {
			fmt.Fprintf(&b, "  %-5s %14.0f\n", c, p.Sigma[c])
		}
	}
	fmt.Fprintf(&b, "  cycles %.0f (compute %.0f, data stalls %.0f, overhead %.0f)\n",
		p.Cycles, p.ComputeCycles, p.DataStallCycles, p.OverheadCycles)
	fmt.Fprintf(&b, "  cache  %.0f accesses, %.0f misses (%.1f%%)\n",
		p.CacheAccesses, p.CacheMisses, 100*p.MissRate())
	fmt.Fprintf(&b, "  time   %.6fs  energy %.4fJ  power %.2fW  IPC %.2f\n",
		p.TimeSec, p.EnergyJ, p.PowerW(), p.IPC())
	return b.String()
}
