// Package arch defines architecture descriptors for the GPUs and CPUs that
// ΣVP simulates. A descriptor captures the paper's per-instruction-class
// parameters (latencies τ, expansion factors for µ derivation, runtime power
// components RP) together with the machine geometry (SMs, cores, warp size,
// caches, bandwidths, clocks) consumed by the discrete-event models in
// internal/hostgpu and internal/cpumodel and by the estimation equations in
// internal/estimate.
package arch

import "fmt"

// InstrClass enumerates the instruction types used throughout the paper
// (Section 4): i ∈ {FP32, FP64, Int, Bit, B, Ld, St}.
type InstrClass int

// Instruction classes, in the paper's order.
const (
	FP32   InstrClass = iota // single-precision floating point
	FP64                     // double-precision floating point
	Int                      // integer arithmetic
	Bit                      // bitwise / shift
	Branch                   // control flow (B)
	Ld                       // memory load
	St                       // memory store
	NumClasses
)

var classNames = [NumClasses]string{"FP32", "FP64", "Int", "Bit", "B", "Ld", "St"}

func (c InstrClass) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("InstrClass(%d)", int(c))
	}
	return classNames[c]
}

// Classes returns all instruction classes in canonical order.
func Classes() []InstrClass {
	out := make([]InstrClass, NumClasses)
	for i := range out {
		out[i] = InstrClass(i)
	}
	return out
}

// ClassVec holds one float64 per instruction class. It is used for
// instruction counts (σ, µ), latencies (τ), expansion factors, and per-class
// energy. The zero value is all zeros.
type ClassVec [NumClasses]float64

// Add returns v + w elementwise.
func (v ClassVec) Add(w ClassVec) ClassVec {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns v - w elementwise.
func (v ClassVec) Sub(w ClassVec) ClassVec {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale returns v multiplied by s.
func (v ClassVec) Scale(s float64) ClassVec {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Mul returns the elementwise product v .* w.
func (v ClassVec) Mul(w ClassVec) ClassVec {
	for i := range v {
		v[i] *= w[i]
	}
	return v
}

// Dot returns Σ_i v_i·w_i — e.g. Σ_i σ_i·τ_i, the ideal cycle count of Eq. 3.
func (v ClassVec) Dot(w ClassVec) float64 {
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Sum returns Σ_i v_i (the total instruction count when v holds σ).
func (v ClassVec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mem returns the load+store component of v.
func (v ClassVec) Mem() float64 { return v[Ld] + v[St] }

// GPU describes a GPU microarchitecture. Fields marked (τ), (µ) and (RP)
// correspond directly to the symbols of the paper's Eq. 1–6.
type GPU struct {
	Name string

	// Geometry.
	SMCount         int // streaming multiprocessors
	CoresPerSM      int // scalar cores per SM
	WarpSize        int
	MaxThreadsPerSM int // occupancy limit: resident threads
	MaxBlocksPerSM  int // occupancy limit: resident blocks
	SharedMemPerSM  int // bytes of shared memory per SM
	RegsPerSM       int // 32-bit registers per SM

	// Clocks and issue.
	ClockMHz float64
	IPC      float64 // peak whole-GPU instructions per cycle (IPC_T / IPC_H in Eq. 2)

	// Per-class parameters.
	Latency ClassVec // τ{i,·}: execution latency in cycles per class (Eq. 3)
	Expand  ClassVec // µ scaling: instructions emitted per canonical IR op per class (Eq. 1, Fig. 8)

	// Memory system.
	L2KiB             int     // last-level data cache size
	LineBytes         int     // cache line size
	Assoc             int     // cache associativity
	MissPenaltyCycles float64 // average data-cache miss penalty
	MemBWGBps         float64 // device memory bandwidth

	// Copy engine (host<->device DMA).
	CopyBWGBps    float64 // sustained copy bandwidth
	CopyLatencyUS float64 // fixed per-transfer setup latency

	// Launch overhead To of Eq. 9.
	LaunchOverheadUS float64

	// Power model (Eq. 6).
	StaticPowerW   float64  // P[static]
	EnergyPerInstr ClassVec // RP components expressed as energy per instruction (J)
	MissEnergyJ    float64  // energy per cache miss (not visible to the estimator)
}

// ClockHz returns the core clock in Hz.
func (g *GPU) ClockHz() float64 { return g.ClockMHz * 1e6 }

// IssuePerSM is the warp-instruction issue throughput of one SM
// (warp-instructions per cycle).
func (g *GPU) IssuePerSM() float64 {
	return float64(g.CoresPerSM) / float64(g.WarpSize)
}

// ResidentBlocks returns how many thread blocks of the given shape can be
// simultaneously resident on one SM, considering the thread, block, shared
// memory and register occupancy limits. It returns at least 1 for any
// launchable block.
func (g *GPU) ResidentBlocks(threadsPerBlock, sharedMemPerBlock, regsPerThread int) int {
	if threadsPerBlock <= 0 {
		return 1
	}
	n := g.MaxBlocksPerSM
	if byThreads := g.MaxThreadsPerSM / threadsPerBlock; byThreads < n {
		n = byThreads
	}
	if sharedMemPerBlock > 0 {
		if byShmem := g.SharedMemPerSM / sharedMemPerBlock; byShmem < n {
			n = byShmem
		}
	}
	if regsPerThread > 0 {
		if byRegs := g.RegsPerSM / (regsPerThread * threadsPerBlock); byRegs < n {
			n = byRegs
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ConcurrentThreads returns the maximum number of threads the GPU holds
// simultaneously for the given block shape — the λ alignment unit of Eq. 9.
func (g *GPU) ConcurrentThreads(threadsPerBlock, sharedMemPerBlock, regsPerThread int) int {
	return g.SMCount * g.ResidentBlocks(threadsPerBlock, sharedMemPerBlock, regsPerThread) * threadsPerBlock
}

// Validate reports an error for descriptors that would break the models.
func (g *GPU) Validate() error {
	switch {
	case g.Name == "":
		return fmt.Errorf("arch: GPU with empty name")
	case g.SMCount <= 0 || g.CoresPerSM <= 0 || g.WarpSize <= 0:
		return fmt.Errorf("arch: %s: non-positive geometry", g.Name)
	case g.ClockMHz <= 0:
		return fmt.Errorf("arch: %s: non-positive clock", g.Name)
	case g.IPC <= 0:
		return fmt.Errorf("arch: %s: non-positive IPC", g.Name)
	case g.CopyBWGBps <= 0 || g.MemBWGBps <= 0:
		return fmt.Errorf("arch: %s: non-positive bandwidth", g.Name)
	case g.LineBytes <= 0 || g.L2KiB <= 0 || g.Assoc <= 0:
		return fmt.Errorf("arch: %s: invalid cache geometry", g.Name)
	}
	for i := 0; i < int(NumClasses); i++ {
		if g.Latency[i] <= 0 {
			return fmt.Errorf("arch: %s: non-positive latency for %s", g.Name, InstrClass(i))
		}
		if g.Expand[i] <= 0 {
			return fmt.Errorf("arch: %s: non-positive expansion for %s", g.Name, InstrClass(i))
		}
	}
	return nil
}

// CPU describes a CPU execution environment used for emulation baselines:
// the native host processor and the binary-translated ARM core of a QEMU
// virtual platform.
type CPU struct {
	Name     string
	ClockMHz float64

	// ScalarCPI is the average cycles per canonical instruction when the
	// workload is compiled natively (the paper's "C on CPU" rows).
	ScalarCPI float64

	// EmulCPI is the baseline cycles per canonical *GPU* instruction when
	// the kernel is executed through device emulation (nvcc -deviceemu
	// style: compiled per-thread execution plus thread-scheduling overhead).
	EmulCPI float64

	// EmulClassCPI refines EmulCPI per instruction class: floating-point and
	// memory instructions cost more to emulate than integer ones (FP helper
	// calls, address translation). Device-emulation time uses
	// Σ_i σ_i·EmulClassCPI_i. A zero vector falls back to EmulCPI for every
	// class.
	EmulClassCPI ClassVec

	// BTScalarSlowdown multiplies scalar execution time when this CPU is a
	// guest simulated through dynamic binary translation (QEMU). 1 for a
	// physical host.
	BTScalarSlowdown float64

	// BTEmulSlowdown is the binary-translation slowdown applied to device
	// emulation, which suffers more from indirect branches and FP helper
	// calls than plain scalar code.
	BTEmulSlowdown float64

	// MemBWGBps is the sustained memory-copy bandwidth of the core, used to
	// time the memcpy portion of emulated GPU programs.
	MemBWGBps float64
}

// ClockHz returns the core clock in Hz.
func (c *CPU) ClockHz() float64 { return c.ClockMHz * 1e6 }

// Validate reports an error for descriptors that would break the models.
func (c *CPU) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("arch: CPU with empty name")
	case c.ClockMHz <= 0:
		return fmt.Errorf("arch: %s: non-positive clock", c.Name)
	case c.ScalarCPI <= 0 || c.EmulCPI <= 0:
		return fmt.Errorf("arch: %s: non-positive CPI", c.Name)
	case c.BTScalarSlowdown < 1 || c.BTEmulSlowdown < 1:
		return fmt.Errorf("arch: %s: binary-translation slowdown below 1", c.Name)
	case c.MemBWGBps <= 0:
		return fmt.Errorf("arch: %s: non-positive memory bandwidth", c.Name)
	}
	return nil
}
