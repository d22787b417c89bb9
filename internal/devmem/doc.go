// Package devmem simulates GPU device memory: an allocator over a bounded
// byte store, plus the binding of raw device bytes to the typed buffers
// kernels operate on. Device pointers are opaque handles, as in the CUDA
// runtime; the host service and the coalescer move raw bytes, so Kernel
// Coalescing (paper Fig. 5) is literal byte-region merging.
//
// Allocations hold little-endian bytes. For a launch, BindParam hands a
// read-only kernel parameter a typed view that aliases those bytes and a
// writable one a private copy that WriteBuffer stores once the kernel has
// succeeded, so a failed launch leaves device memory untouched. Views exist
// only on a little-endian host and over bytes aligned for the element type;
// everywhere else the parameter gets a private copy. A view relies on the
// per-device executor being the only writer of the memory while a launch is
// in flight (DESIGN.md §16).
//
// The allocator is a first-fit free list with adjacent-region merge and
// bump-pointer retraction, so long-lived alloc/free churn keeps the address
// space bounded by the peak working set. Capacity, Headroom and HighWater
// expose the load signals the multi-GPU placement policies (paper §V's
// multi-device serving extension) score devices by.
//
// For VP checkpoint/restore and live migration, an arena is serializable:
// Export captures every live allocation (pointer + private byte copy) and
// Replay reconstructs them — AllocAt pins an allocation at its original
// address when the span is free, and callers fall back to a fresh Alloc plus
// a pointer-rebase entry when it is not (see core's migration machinery).
package devmem
