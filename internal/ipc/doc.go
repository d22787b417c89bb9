// Package ipc implements the IPC Manager of the ΣVP architecture (paper
// Fig. 2): the channel through which virtual embedded GPUs inside VPs talk
// to the host-GPU service. Two transports are provided — an in-process
// transport for co-simulated VPs and a TCP socket transport for VPs running
// as separate processes ("an IPC method such as socket or shared memory") —
// plus the VP Control primitive the service uses to stop and resume VPs for
// synchronous-kernel interleaving (paper Fig. 4b).
//
// # Request vocabulary
//
// ipc.go defines the typed request/response pairs: memory management
// (MallocReq/FreeReq), transfers (H2DReq/D2HReq/MemsetReq), kernel launches
// (LaunchReq), synchronization (SyncReq), and the farm-admin frames
// (MigrateReq moves a VP between a multi-device farm's devices;
// CheckpointReq returns an encoded whole-farm image — see internal/core and
// DESIGN.md §15). Typed errors (errors.go) distinguish timeouts, broken
// connections, and admission-control sheds (OverloadResp → OverloadError,
// retryable with a server-suggested backoff).
//
// # Wire format
//
// The TCP transport speaks one protocol: a versioned hello followed by
// hand-rolled length-prefixed binary frames (wire.go) over pooled buffers,
// with zero steady-state allocations on the fast path. A peer whose hello
// names another version is closed without a reply. Clients may pipeline:
// several calls of one VP can be in flight at once, each matched to its
// response by frame id (binclient.go). A payload crosses user space once per
// side: an H2D leaves as one writev of head and the caller's slice, a D2H is
// read from the device into a pooled response frame (NewD2HResp) and from the
// socket into the caller's result (DESIGN.md §11).
package ipc
