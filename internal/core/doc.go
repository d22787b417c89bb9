// Package core assembles the ΣVP host service (paper Fig. 2): the IPC
// manager endpoint, the Job Queue, the Re-scheduler (Kernel Interleaving +
// Kernel Match/Coalescing), the Job Dispatcher driving the host-GPU model,
// and the VP Control logic that batches requests while VPs are stopped at
// synchronous invocations.
//
// # The device layer
//
// Service multiplexes one simulated host GPU among its registered VPs. It
// has no request surface of its own: jobs reach it through the farm
// (MultiService.submit, below); submissions queue until every registered VP
// is parked at a synchronous point — the VP Control mechanism of paper
// Fig. 4b — then the accumulated batch is re-scheduled and dispatched. Every
// batch, served or raw, takes one route: runBatch → executor.submit →
// runHead → dispatch. The batch runs on a goroutine draining the device or
// on a runner goroutine, which exits once the device has no work. Submit
// starts a runner for a served batch, overlapping guest submission with
// device simulation, and for a raw batch only when it queues behind a batch
// nobody has taken yet: a lone raw batch's submitter owes a drain, which
// runs it, so a lock-step round starts no goroutine. Whoever runs a batch,
// the simulated results are byte-identical, and an idle device holds no
// goroutine. The batch's host-side byte moves (devmem.Moves) and the
// launches whose functional half the device skipped because it would leave
// device memory as it is (hostgpu.GPU.Elide) are counted into the host
// family core.exec. — core.exec.h2d_unchanged_bytes, for H2D bytes compared
// equal to those they would overwrite, and core.exec.launches_elided among
// them — by the token holder after each batch.
// A farm's one admission gate (admission.go), shared by its devices, bounds
// the queue per VP, per device, and per farm under one lock, shedding excess
// with typed, retryable overload responses instead of queueing without
// limit.
//
// # Observability
//
// A device's registry holds counters, gauges and histograms only. Per-job
// history is its timeline, kept only with Options.Trace: the token holder
// names each job to the device (hostgpu.GPU.SetTraceJob) before running it,
// so every engine op record carries the job's VP and its submit and plan
// times, and a refused job (trace.KindFailed), a cancelled one
// (KindCancelled), a VP's arrival (KindMigrated) and, with
// Options.EstimateTarget, each kernel job's target estimate (KindEstimate)
// are records of their own kinds. The timeline is a bounded ring
// (trace.Capacity), so with tracing on or off a served job leaves nothing
// behind that grows with the requests served. Snapshot drains first; MultiService.Scrape and the
// timeline reads (Trace, MergedTrace), what the daemon's /metrics and /trace
// serve, do not, so neither waits behind nor runs a device's batches.
//
// # The farm: the one served shape
//
// MultiService serves a fleet of VPs across one or more devices behind one
// Handle surface, and is what every daemon serves: a single device is a
// farm of one (sigmavpd without -gpus). Placement policies (round-robin,
// least-loaded, mem-aware) assign a VP to a device at registration. Handle
// is the only type switch over wire requests; the farm-admin requests
// (CheckpointReq, MigrateReq) are answered there, outside the VP's gate.
// In-process hosts take their cudart back ends from MultiService.Backend,
// the one in-process back end. Both doors take one submission route,
// MultiService.submit: resolve the VP's device, build the job with the
// per-device builders, admit it through the farm's gate and queue it, so
// whether a VP can be shed does not depend on its transport. Service is the
// per-device layer, and only its farm constructs one (newService).
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
// collides. Guest pointers stay stable: each VP's pointer table lives in its
// vpState shard, and one translation (vpState.translate) maps every pointer
// a request or a free names, refusing one the VP does not own. Whole-farm
// images have one hand-rolled binary encoding and round-trip through disk
// (SaveCheckpoint/LoadCheckpoint), so a daemon restart can restore its
// fleet. Moves are explicit (Migrate, or an ipc.MigrateReq from any
// client); there is no background rebalancing policy. DESIGN.md §15
// documents the format, the state machine, and the determinism caveats.
package core
