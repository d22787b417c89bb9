// Package core assembles the ΣVP host service (paper Fig. 2): the IPC
// manager endpoint, the Job Queue, the Re-scheduler (Kernel Interleaving +
// Kernel Match/Coalescing), the Job Dispatcher driving the host-GPU model,
// and the VP Control logic that batches requests while VPs are stopped at
// synchronous invocations.
//
// # Single device
//
// Service multiplexes one simulated host GPU among its registered VPs.
// Requests arrive through Handle (the ipc.Handler contract); submissions
// queue until every registered VP is parked at a synchronous point — the VP
// Control mechanism of paper Fig. 4b — then the accumulated batch is
// re-scheduled and dispatched. Admission gates (admission.go) bound the
// queue per VP, per device, and per farm, shedding excess with typed,
// retryable overload responses instead of queueing without limit.
//
// # Multi-device farms
//
// MultiService serves a fleet of VPs across several devices behind one
// Handle surface. Placement policies (round-robin, least-loaded, mem-aware)
// assign a VP to a device at registration; per-device executors overlap
// guest submission with device simulation.
//
// # Checkpoint, restore, and live migration
//
// A VP's complete device-side context — tracked devmem allocations with
// their bytes, and the simulated clocks of its stream window — serializes
// into a VPCheckpoint (checkpoint.go). Captures ride the existing drain
// barriers, so queued jobs and admission reservations never need
// representation: they are provably empty at the cut. MultiService.Migrate
// moves a VP between devices through quiesce → transfer → replay → resume
// (migrate.go), rebasing device pointers when the target's address space
// collides (guest pointers stay stable; ResolvePtr translates). Whole-farm
// images have one hand-rolled binary encoding and round-trip through disk
// (SaveCheckpoint/LoadCheckpoint), so a daemon restart can restore its
// fleet. An optional load-aware rebalancer (rebalance.go)
// migrates VPs off hot devices in the background. DESIGN.md §15 documents
// the format, the state machine, and the determinism caveats.
package core
