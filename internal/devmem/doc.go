// Package devmem simulates GPU device memory: an allocator over a bounded
// byte store, plus the binding of raw device bytes to the typed buffers
// kernels operate on. Device pointers are opaque handles, as in the CUDA
// runtime; the host service and the coalescer move raw bytes, so Kernel
// Coalescing (paper Fig. 5) is literal byte-region merging.
//
// Allocations hold little-endian bytes. For a launch, BindParam hands a
// read-only kernel parameter a typed view that aliases those bytes and a
// writable one a private copy that Commit makes the allocation's backing once
// the kernel has succeeded, so a failed launch leaves device memory
// untouched. The copy is filled from the allocation only past the prefix the
// caller says the launch overwrites before reading (kir's Program.Covered);
// the package itself knows no kernel. Views exist only on a little-endian host and over bytes aligned
// for the element type; everywhere else the parameter gets a private copy. A
// view relies on the per-device executor being the only writer of the memory
// while a launch is in flight (DESIGN.md §16).
//
// Bytes change owner rather than place where they can: an H2D payload that
// covers its whole allocation is adopted as its backing (Adopt), and a
// committed copy replaces the backing it was made from. What either
// displaces goes to the package's one buffer pool (pool.go), which the next
// payload or writable copy draws from and the garbage collector trims.
//
// The allocator is a first-fit free list with adjacent-region merge and
// bump-pointer retraction, so long-lived alloc/free churn keeps the address
// space bounded by the peak working set. Capacity, Headroom and HighWater
// expose the load signals the multi-GPU placement policies (paper §V's
// multi-device serving extension) score devices by.
//
// Every allocation and reservation carries a generation (Gen), drawn from one
// counter per Mem that only goes up: Alloc, Reserve, AllocAt, Fill,
// WriteBuffer and Commit each give the allocation they change a fresh value,
// reads take none, and Free drops it, so an address allocated again never has
// a generation an earlier allocation had. Write and Adopt first compare the
// incoming bytes with the range they would overwrite: bytes that differ are
// copied or adopted under a fresh value, equal ones move nowhere and the
// allocation keeps its generation (Moves.UnchangedBytes counts them), so a
// guest that re-sends the bytes an allocation holds leaves them as they
// were. A compare that finds new bytes is a read pass for nothing, so on an
// allocation whose copy-ins keep differing the compare backs off, down to one
// copy-in in 64; a skipped copy-in takes a fresh value as before. Fill,
// WriteBuffer and Commit compare nothing: a memset before a
// write-only kernel lands on that kernel's last output, and a write-back
// compare would cost the pass an elided launch saves. Two equal generations
// of one address mean the same allocation with the same bytes; the host GPU
// model skips a launch that would rewrite bytes that have not changed since
// that launch last wrote them by this alone. A new method that changes bytes
// must take a generation (TestGenerationContract classifies every exported
// method).
//
// For VP checkpoint/restore and live migration, core reads each allocation a
// VP owns (Read) and re-creates it elsewhere: AllocAt pins an allocation at
// its original address when the span is free, core falls back to a fresh
// Alloc plus a pointer-rebase entry when it is not, and Write puts the bytes
// back. Export snapshots every live allocation of an arena, sorted, for tests
// to compare.
package devmem
