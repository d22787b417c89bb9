// Package ipc implements the IPC Manager of the ΣVP architecture (paper
// Fig. 2): the channel through which virtual embedded GPUs inside VPs talk
// to the host-GPU service. Two transports are provided — an in-process
// transport for co-simulated VPs and a TCP socket transport for VPs running
// as separate processes ("an IPC method such as socket or shared memory").
// VP Control (paper Fig. 4b) is not a transport matter: a VP is stopped while
// its handler waits in the service (core.Service.WaitJob).
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
//
// # Handler contract: who owns the bytes
//
// A request's byte slices belong to the transport and are dead once the
// handler returns. The TCP server reads an H2D's payload into a buffer of its
// own from device memory's pool and lends it to the handler through
// H2DReq.Payload; the handler may lend it on to a job, which adopts it as an
// allocation's backing when the H2D covers the whole allocation and leaves
// the displaced backing in its place (devmem.Mem.Adopt). The server releases
// the payload, whatever it then holds, once the handler has returned — so a
// handler returns only after such a job has run or been cancelled. An H2DReq
// built by anyone else has no payload and is only ever copied.
package ipc
