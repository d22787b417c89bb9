// Package core assembles the ΣVP host service (paper Fig. 2): the IPC
// manager endpoint, the Job Queue, the Re-scheduler (Kernel Interleaving +
// Kernel Match/Coalescing), the Job Dispatcher driving the host-GPU model,
// and the VP Control logic that batches requests while VPs are stopped at
// synchronous invocations.
//
// # The device layer
//
// Service multiplexes one simulated host GPU among its registered VPs.
// Requests arrive through Handle (the ipc.Handler contract); submissions
// queue until every registered VP is parked at a synchronous point — the VP
// Control mechanism of paper Fig. 4b — then the accumulated batch is
// re-scheduled and dispatched. Every batch, served or raw, takes one route:
// runBatch → executor.submit → dispatch. The executor runs the batch on its
// own goroutine (Options.Pipeline, overlapping guest submission with device
// simulation) or inline on the submitter (Pipeline off, or after Close) —
// two states of one path with byte-identical simulated results. Admission
// gates (admission.go) bound the queue per VP, per device, and per farm,
// shedding excess with typed, retryable overload responses instead of
// queueing without limit.
//
// # The farm: the one served shape
//
// MultiService serves a fleet of VPs across one or more devices behind one
// Handle surface, and is what every daemon serves: a single device is a
// farm of one (sigmavpd without -gpus). Placement policies (round-robin,
// least-loaded, mem-aware) assign a VP to a device at registration. The
// farm-admin requests (CheckpointReq, MigrateReq) are answered here, before
// routing; Service.Handle knows only device work. In-process hosts take their
// cudart back ends from MultiService.Backend, the one in-process back end,
// which builds its jobs with the per-device builders Handle uses. Service is
// the per-device layer; no other package's non-test code constructs one.
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
// fleet. Moves are explicit (Migrate, or an ipc.MigrateReq from any
// client); there is no background rebalancing policy. DESIGN.md §15
// documents the format, the state machine, and the determinism caveats.
package core
