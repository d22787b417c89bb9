// Package coalesce implements Kernel Coalescing (paper Section 3): when
// several VPs invoke the *identical* kernel at the same time, the
// Re-scheduler's Kernel Match stage groups the requests, the memory chunks
// of the constituent launches are merged into one physically-contiguous
// region per kernel buffer (Fig. 5), a single kernel instance runs over the
// merged data (Fig. 6b), and the results are scattered back to each VP's
// memory.
//
// Gains, all emergent from the device model: one launch overhead To instead
// of N (Eq. 9), a grid of Σ blocks that fills SM waves where the small
// per-VP grids each wasted one (data alignment), and the extra parallelism
// of the merged grid when the constituents undersubscribe the device
// (Fig. 10a).
//
// That sequence is what the simulated device is charged for. The host does
// only what needs no modelling: the merged regions are reserved in device
// memory without backing bytes (devmem.Mem.Reserve), the gather and scatter
// copies are priced and not made (hostgpu.GPU.ChargeD2D), and in ExecFull each
// member's kernel runs in place on the member's own allocations, the pieces
// fanned out over the device's worker budget. A merged launch is
// all-or-nothing: no member's memory changes unless every piece succeeded.
package coalesce
