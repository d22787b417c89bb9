// Package cudart is the GPU User Library of the ΣVP architecture (paper
// Fig. 2): a CUDA-runtime-like API that guest applications program against.
// The same application runs unchanged on either back end — GPU emulation on
// the VP's CPU (the baseline) or the ΣVP host-GPU service — which is the
// paper's binary-compatibility requirement: "the application binaries that
// use GPU instructions do not need any change to run on the virtual GPUs."
package cudart

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/metrics"
)

// Token tracks an asynchronous operation.
type Token interface {
	// Wait blocks until the operation completes.
	Wait() error
	// Interval reports the operation's simulated time span.
	Interval() hostgpu.Interval
	// Bytes returns the payload of a device-to-host copy, nil otherwise.
	Bytes() []byte
}

// Backend is a virtual GPU device implementation.
type Backend interface {
	Malloc(n int) (devmem.Ptr, error)
	Free(p devmem.Ptr) error
	H2D(stream int, dst devmem.Ptr, off int, data []byte) (Token, error)
	D2H(stream int, src devmem.Ptr, off, n int) (Token, error)
	Memset(stream int, dst devmem.Ptr, off, n int, value byte) (Token, error)
	Launch(stream int, l *hostgpu.Launch) (Token, error)
	Close() error
}

// ClockSink receives simulated-time synchronization points — the VP's local
// clock in the loosely-timed co-simulation: after a synchronous GPU
// operation completes at host time t, the guest cannot have progressed past
// t.
type ClockSink interface {
	SyncTo(t float64)
}

// Context is a per-VP CUDA-like runtime context.
type Context struct {
	VP int

	b  Backend
	mu sync.Mutex
	// outstanding async tokens per stream.
	outstanding map[int][]Token
	clock       ClockSink
}

// AttachClock registers the VP's local clock; every synchronous wait then
// advances it to the operation's simulated completion time.
func (c *Context) AttachClock(cs ClockSink) {
	c.mu.Lock()
	c.clock = cs
	c.mu.Unlock()
}

// syncClock forwards a completion time to the attached clock.
func (c *Context) syncClock(t float64) {
	c.mu.Lock()
	cs := c.clock
	c.mu.Unlock()
	if cs != nil && t > 0 {
		cs.SyncTo(t)
	}
}

// waitToken waits for one token and syncs the clock.
func (c *Context) waitToken(t Token) error {
	err := t.Wait()
	c.syncClock(t.Interval().End)
	return err
}

// NewContext wraps a back end.
func NewContext(vp int, b Backend) *Context {
	return &Context{VP: vp, b: b, outstanding: map[int][]Token{}}
}

// Malloc allocates device memory.
func (c *Context) Malloc(n int) (devmem.Ptr, error) { return c.b.Malloc(n) }

// Free releases device memory.
func (c *Context) Free(p devmem.Ptr) error { return c.b.Free(p) }

// MemcpyH2D synchronously copies host bytes to the device.
func (c *Context) MemcpyH2D(dst devmem.Ptr, data []byte) error {
	t, err := c.b.H2D(0, dst, 0, data)
	if err != nil {
		return err
	}
	return c.waitToken(t)
}

// MemcpyH2DAsync enqueues a host-to-device copy on a stream.
func (c *Context) MemcpyH2DAsync(stream int, dst devmem.Ptr, data []byte) error {
	t, err := c.b.H2D(stream, dst, 0, data)
	if err != nil {
		return err
	}
	c.record(stream, t)
	return nil
}

// MemcpyD2H synchronously copies device bytes back to the host.
func (c *Context) MemcpyD2H(src devmem.Ptr, n int) ([]byte, error) {
	t, err := c.b.D2H(0, src, 0, n)
	if err != nil {
		return nil, err
	}
	if err := c.waitToken(t); err != nil {
		return nil, err
	}
	return t.Bytes(), nil
}

// MemcpyD2HAsync enqueues a device-to-host copy; the bytes are available
// from the returned token after Wait.
func (c *Context) MemcpyD2HAsync(stream int, src devmem.Ptr, n int) (Token, error) {
	t, err := c.b.D2H(stream, src, 0, n)
	if err != nil {
		return nil, err
	}
	c.record(stream, t)
	return t, nil
}

// Memset synchronously fills n bytes of device memory with value.
func (c *Context) Memset(dst devmem.Ptr, n int, value byte) error {
	t, err := c.b.Memset(0, dst, 0, n, value)
	if err != nil {
		return err
	}
	return c.waitToken(t)
}

// MemsetAsync enqueues a fill on a stream.
func (c *Context) MemsetAsync(stream int, dst devmem.Ptr, n int, value byte) error {
	t, err := c.b.Memset(stream, dst, 0, n, value)
	if err != nil {
		return err
	}
	c.record(stream, t)
	return nil
}

// LaunchKernel synchronously invokes a kernel.
func (c *Context) LaunchKernel(l *hostgpu.Launch) error {
	t, err := c.b.Launch(0, l)
	if err != nil {
		return err
	}
	return c.waitToken(t)
}

// LaunchKernelAsync enqueues a kernel on a stream.
func (c *Context) LaunchKernelAsync(stream int, l *hostgpu.Launch) error {
	t, err := c.b.Launch(stream, l)
	if err != nil {
		return err
	}
	c.record(stream, t)
	return nil
}

func (c *Context) record(stream int, t Token) {
	c.mu.Lock()
	c.outstanding[stream] = append(c.outstanding[stream], t)
	c.mu.Unlock()
}

// StreamSynchronize waits for every outstanding operation on a stream.
func (c *Context) StreamSynchronize(stream int) error {
	c.mu.Lock()
	toks := c.outstanding[stream]
	delete(c.outstanding, stream)
	c.mu.Unlock()
	var first error
	for _, t := range toks {
		if err := c.waitToken(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DeviceSynchronize waits for every outstanding operation on every stream.
func (c *Context) DeviceSynchronize() error {
	c.mu.Lock()
	var all []Token
	for s, toks := range c.outstanding {
		all = append(all, toks...)
		delete(c.outstanding, s)
	}
	c.mu.Unlock()
	var first error
	for _, t := range all {
		if err := c.waitToken(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close releases the back end.
func (c *Context) Close() error { return c.b.Close() }

// doneToken is a pre-completed token for synchronous back ends.
type doneToken struct {
	iv   hostgpu.Interval
	data []byte
	err  error
}

func (t doneToken) Wait() error                { return t.err }
func (t doneToken) Interval() hostgpu.Interval { return t.iv }
func (t doneToken) Bytes() []byte              { return t.data }

// --- Emulation back end (paper Fig. 1a) ---

type emulBackend struct{ d *emul.Device }

// NewEmulBackend runs GPU operations through the software emulator on the
// VP's CPU — the baseline scenario.
func NewEmulBackend(d *emul.Device) Backend { return &emulBackend{d: d} }

func (e *emulBackend) Malloc(n int) (devmem.Ptr, error) { return e.d.Mem.Alloc(n) }
func (e *emulBackend) Free(p devmem.Ptr) error          { return e.d.Mem.Free(p) }

func (e *emulBackend) H2D(stream int, dst devmem.Ptr, off int, data []byte) (Token, error) {
	iv, err := e.d.CopyH2D(dst, off, data)
	return doneToken{iv: iv, err: err}, nil
}

func (e *emulBackend) D2H(stream int, src devmem.Ptr, off, n int) (Token, error) {
	data, iv, err := e.d.CopyD2H(src, off, n)
	return doneToken{iv: iv, data: data, err: err}, nil
}

func (e *emulBackend) Memset(stream int, dst devmem.Ptr, off, n int, value byte) (Token, error) {
	iv, err := e.d.Memset(dst, off, n, value)
	return doneToken{iv: iv, err: err}, nil
}

func (e *emulBackend) Launch(stream int, l *hostgpu.Launch) (Token, error) {
	_, iv, err := e.d.Launch(l)
	return doneToken{iv: iv, err: err}, nil
}

func (e *emulBackend) Close() error { return nil }

// --- Remote (socket IPC) back end ---

type remoteBackend struct {
	c ipc.Client
	// tc carries the four job-submitting operations: the TCP client's typed
	// calls, or ipc.Typed's adapter over Call for any other transport.
	tc ipc.TypedCaller
	// retries is the extra-attempt budget for idempotent requests that fail
	// with a retryable transport error (timeout, disconnect).
	retries int
	// overloadRetries is the separate budget for requests the service shed
	// with a retryable overload; maxBackoff caps each honoured backoff hint.
	overloadRetries int
	maxBackoff      time.Duration
	m               *metrics.Registry // nil-safe: counters degrade to no-ops

	// sleep is the backoff clock, swappable in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// DefaultRetries is the remote back end's retry budget for idempotent
// requests after transport faults.
const DefaultRetries = 2

// DefaultOverloadRetries is the retry budget for overload sheds. It is
// deliberately separate from (and larger than) the transport budget: a shed
// is a healthy server protecting itself, and backing off + retrying is the
// designed response.
const DefaultOverloadRetries = 4

// DefaultMaxBackoff caps how long one honoured backoff hint can park the
// caller, so a pathological server hint cannot wedge the guest.
const DefaultMaxBackoff = 250 * time.Millisecond

// NewRemoteBackend talks to a ΣVP service over an ipc.Client (socket or
// in-process pipe) with the default retry contracts. Operations are
// synchronous RPCs; the service's VP Control batches concurrently-stopped VPs
// for re-scheduling. Idempotent requests (H2D, D2H, memset) are retried up to
// DefaultRetries times when the transport reports a timeout or disconnect;
// launches, allocations, and frees are never replayed — a duplicated launch
// would re-run kernel side effects, a duplicated malloc would leak.
func NewRemoteBackend(c ipc.Client) Backend {
	return NewRemoteBackendOpts(c, RemoteOptions{Retries: DefaultRetries})
}

// RemoteOptions tunes the remote back end's retry contracts.
type RemoteOptions struct {
	// Retries is the idempotent-replay budget after transport faults
	// (0 disables).
	Retries int
	// OverloadRetries bounds backoff-and-resubmit rounds after retryable
	// overload sheds; zero means DefaultOverloadRetries, negative disables.
	OverloadRetries int
	// MaxBackoff caps each honoured server backoff hint; zero means
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Metrics counts replays (cudart.retries, cudart.retries_exhausted) and
	// overload rounds (cudart.overload_retries, cudart.overload_exhausted).
	Metrics *metrics.Registry
}

// NewRemoteBackendOpts builds a remote back end with explicit retry tuning.
func NewRemoteBackendOpts(c ipc.Client, o RemoteOptions) Backend {
	r := &remoteBackend{
		c: c, retries: o.Retries, m: o.Metrics,
		overloadRetries: DefaultOverloadRetries,
		maxBackoff:      DefaultMaxBackoff,
	}
	r.tc = ipc.Typed(c)
	if o.OverloadRetries != 0 {
		r.overloadRetries = max(o.OverloadRetries, 0)
	}
	if o.MaxBackoff > 0 {
		r.maxBackoff = o.MaxBackoff
	}
	return r
}

// withOverloadRetry re-issues call while the service sheds it with a
// *retryable* overload, honouring the server's suggested backoff with jitter
// and per-attempt exponential growth. Unlike the transport-fault retry this
// is safe for EVERY request kind, launches included: an overload shed means
// the request was observably never admitted, so resubmission cannot
// duplicate work. Non-retryable overloads (a request that can never fit the
// configured quotas) surface to the application immediately.
func withOverloadRetry[T any](r *remoteBackend, call func() (T, error)) (T, error) {
	resp, err := call()
	for attempt := 0; attempt < r.overloadRetries; attempt++ {
		oe, ok := ipc.AsOverload(err)
		if !ok || !oe.Retryable {
			return resp, err
		}
		r.m.Counter("cudart.overload_retries").Inc()
		r.backoff(oe.Backoff, attempt)
		resp, err = call()
	}
	if oe, ok := ipc.AsOverload(err); ok && oe.Retryable {
		r.m.Counter("cudart.overload_exhausted").Inc()
	}
	return resp, err
}

// backoff sleeps for the server's hint, doubled per prior attempt, capped at
// maxBackoff, with ±50% jitter so a fleet of shed clients does not resubmit
// in lockstep and re-create the very overload that shed them.
func (r *remoteBackend) backoff(hint time.Duration, attempt int) {
	d := hint
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt && d < r.maxBackoff; i++ {
		d *= 2
	}
	if r.maxBackoff > 0 && d > r.maxBackoff {
		d = r.maxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1)) // [d/2, d]
	if r.sleep != nil {
		r.sleep(d)
	} else {
		time.Sleep(d)
	}
}

func (r *remoteBackend) Malloc(n int) (devmem.Ptr, error) {
	resp, err := ipc.ReplyAs[ipc.MallocResp](r.c.Call(ipc.MallocReq{Size: n}))
	return resp.Ptr, err
}

func (r *remoteBackend) Free(p devmem.Ptr) error {
	_, err := r.c.Call(ipc.FreeReq{Ptr: p})
	return err
}

// retryIdempotent issues a request, re-issuing it on retryable transport
// errors. Only requests whose replay leaves the device in the same state may
// go through here: the original may have been applied server-side even
// though the response was lost.
func retryIdempotent[Req, Resp any](r *remoteBackend, req Req, call func(Req) (Resp, error)) (Resp, error) {
	resp, err := call(req)
	for attempt := 0; attempt < r.retries && ipc.IsRetryable(err); attempt++ {
		r.m.Counter("cudart.retries").Inc()
		resp, err = call(req)
	}
	if ipc.IsRetryable(err) {
		r.m.Counter("cudart.retries_exhausted").Inc()
	}
	return resp, err
}

// okToken is the token of a finished H2D, memset or launch.
func okToken(ok ipc.OKResp, err error) (Token, error) {
	return doneToken{iv: hostgpu.Interval{End: ok.End}, err: err}, nil
}

func (r *remoteBackend) H2D(stream int, dst devmem.Ptr, off int, data []byte) (Token, error) {
	req := ipc.H2DReq{Stream: stream, Dst: dst, Off: off, Data: data}
	return okToken(withOverloadRetry(r, func() (ipc.OKResp, error) {
		return retryIdempotent(r, req, r.tc.CallH2D)
	}))
}

func (r *remoteBackend) D2H(stream int, src devmem.Ptr, off, n int) (Token, error) {
	req := ipc.D2HReq{Stream: stream, Src: src, Off: off, N: n}
	d, err := withOverloadRetry(r, func() (ipc.D2HResp, error) {
		return retryIdempotent(r, req, r.tc.CallD2H)
	})
	return doneToken{iv: hostgpu.Interval{End: d.End}, data: d.Data, err: err}, nil
}

func (r *remoteBackend) Memset(stream int, dst devmem.Ptr, off, n int, value byte) (Token, error) {
	req := ipc.MemsetReq{Stream: stream, Dst: dst, Off: off, N: n, Value: value}
	return okToken(withOverloadRetry(r, func() (ipc.OKResp, error) {
		return retryIdempotent(r, req, r.tc.CallMemset)
	}))
}

func (r *remoteBackend) Launch(stream int, l *hostgpu.Launch) (Token, error) {
	if l.Kernel == nil {
		return nil, fmt.Errorf("cudart: launch without kernel")
	}
	req := ipc.LaunchReq{
		Stream:    stream,
		Kernel:    l.Kernel.Name,
		Grid:      l.Grid,
		Block:     l.Block,
		SharedMem: l.SharedMemPerBlock,
		Regs:      l.RegsPerThread,
		Params:    l.Params,
		Bindings:  l.Bindings,
	}
	// Launches are never replayed after *transport* faults (re-running a
	// kernel repeats its side effects), so each attempt is a single shot.
	// Overload sheds are different: a shed launch was never admitted, so the
	// backoff-and-resubmit wrapper is safe even here.
	return okToken(withOverloadRetry(r, func() (ipc.OKResp, error) { return r.tc.CallLaunch(req) }))
}

func (r *remoteBackend) Close() error { return r.c.Close() }
