// Core transports and request vocabulary of the IPC Manager (paper
// Fig. 2): the in-process pipe transport, the TCP server, and the typed
// request/response pairs they carry. See doc.go for the package overview,
// wire.go for the frame format and binclient.go for the TCP client.

package ipc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/devmem"
	"repro/internal/kpl"
	"repro/internal/metrics"
)

// Request and response bodies. Kernel launches travel by registry name: the
// service holds the kernel binaries (binary compatibility — guest
// applications never change between back ends).

// MallocReq allocates device memory.
type MallocReq struct{ Size int }

// MallocResp returns the new device pointer.
type MallocResp struct{ Ptr devmem.Ptr }

// FreeReq releases device memory.
type FreeReq struct{ Ptr devmem.Ptr }

// H2DReq copies host bytes into device memory.
type H2DReq struct {
	Stream int
	Dst    devmem.Ptr
	Off    int
	Data   []byte
}

// D2HReq copies device bytes back to the host.
type D2HReq struct {
	Stream int
	Src    devmem.Ptr
	Off, N int
}

// D2HResp carries the copied bytes.
type D2HResp struct {
	Data []byte
	End  float64 // simulated completion time

	// frame, when non-nil, is the pooled response frame Data is the tail of
	// (see NewD2HResp).
	frame *frameBuf
}

// MemsetReq fills device memory with a byte value (cudaMemset).
type MemsetReq struct {
	Stream int
	Dst    devmem.Ptr
	Off, N int
	Value  byte
}

// LaunchReq invokes a named kernel.
type LaunchReq struct {
	Stream      int
	Kernel      string
	Grid, Block int
	SharedMem   int
	Regs        int
	Params      map[string]kpl.Value
	Bindings    map[string]devmem.Ptr
}

// SyncReq waits for the VP's outstanding work.
type SyncReq struct{ Stream int }

// OKResp acknowledges an operation.
type OKResp struct {
	End float64 // simulated completion time of the op
}

// ErrResp reports a failure.
type ErrResp struct{ Msg string }

// OverloadResp reports an admission-control rejection: the service shed the
// request instead of queueing it. Retryable sheds are transient quota/rate
// pressure — the caller should back off at least Backoff and resubmit.
// Non-retryable sheds (e.g. a payload larger than the byte quota) can never
// be admitted and must surface to the application. Err converts this frame
// into an *OverloadError.
type OverloadResp struct {
	Msg       string
	Backoff   time.Duration
	Retryable bool
}

// MigrateReq asks a multi-device service to live-migrate a VP's device-side
// context onto the target device (a farm-admin request: any connection may
// send it, and single-device services reject it).
type MigrateReq struct {
	VP     int
	Target int
}

// CheckpointReq asks the service for a serialized image of its device-side
// state (core.Checkpoint).
type CheckpointReq struct{}

// CheckpointResp carries the encoded checkpoint image.
type CheckpointResp struct{ Data []byte }

// Handler processes one request from one VP and returns the response body.
type Handler func(vp int, req any) any

// Client is a VP-side connection to the service.
type Client interface {
	Call(req any) (any, error)
	Close() error
}

// TypedCaller is the per-message-type call surface the cudart remote back end
// programs against. The TCP client implements it without the `any` boxing of
// Client.Call on request or response; Typed gives it to every other transport.
type TypedCaller interface {
	CallH2D(H2DReq) (OKResp, error)
	CallD2H(D2HReq) (D2HResp, error)
	CallMemset(MemsetReq) (OKResp, error)
	CallLaunch(LaunchReq) (OKResp, error)
}

// Typed returns c's typed calls: its own when it has them, otherwise an
// adapter that issues each one through c.Call (the pipe transport, test
// fakes), so callers have one body per operation whatever the transport.
func Typed(c Client) TypedCaller {
	if tc, ok := c.(TypedCaller); ok {
		return tc
	}
	return callAdapter{c}
}

type callAdapter struct{ c Client }

func (a callAdapter) CallH2D(r H2DReq) (OKResp, error)       { return ReplyAs[OKResp](a.c.Call(r)) }
func (a callAdapter) CallD2H(r D2HReq) (D2HResp, error)      { return ReplyAs[D2HResp](a.c.Call(r)) }
func (a callAdapter) CallMemset(r MemsetReq) (OKResp, error) { return ReplyAs[OKResp](a.c.Call(r)) }
func (a callAdapter) CallLaunch(r LaunchReq) (OKResp, error) { return ReplyAs[OKResp](a.c.Call(r)) }

// ReplyAs narrows Client.Call's boxed reply to the kind the request expects.
// A reply of any other kind is a wire error, as on the typed TCP calls — never
// a failed type assertion in the guest.
func ReplyAs[Resp any](resp any, err error) (Resp, error) {
	r, ok := resp.(Resp)
	if err == nil && !ok {
		err = wireError("unexpected response %T", resp)
	}
	return r, err
}

// Err converts an ErrResp or OverloadResp into an error, passing other
// responses through.
func Err(resp any) (any, error) {
	switch e := resp.(type) {
	case ErrResp:
		return nil, fmt.Errorf("ipc: %s", e.Msg)
	case OverloadResp:
		return nil, &OverloadError{Msg: e.Msg, Backoff: e.Backoff, Retryable: e.Retryable}
	}
	return resp, nil
}

// --- In-process transport ---

type pipeClient struct {
	vp int
	h  Handler
	mu sync.Mutex
}

// Pipe returns an in-process client that invokes the handler directly (the
// shared-memory flavour of the IPC manager).
func Pipe(vp int, h Handler) Client {
	return &pipeClient{vp: vp, h: h}
}

func (p *pipeClient) Call(req any) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Err(p.h(p.vp, req))
}

func (p *pipeClient) Close() error { return nil }

// --- TCP socket transport ---

// Server accepts VP connections on a listener and serves requests. Requests
// on one connection are handled concurrently: the decode loop keeps reading
// while earlier requests are blocked in the handler (a VP stopped at a
// synchronous point), so a dying connection is noticed immediately and the
// disconnect hook can cancel the VP's orphaned work.
type Server struct {
	l            net.Listener
	h            Handler
	onConnect    func(vp int)
	onDisconnect func(vp int)
	mu           sync.Mutex
	closed       bool
	conns        map[net.Conn]struct{}
	vpConns      map[int]int // open connections per VP (reconnects overlap)
	serving      sync.WaitGroup

	metrics *metrics.Registry
}

// SetMetrics attaches a registry recording server-side transport counters
// (connections, requests served, decode errors). Call before traffic starts.
func (s *Server) SetMetrics(m *metrics.Registry) { s.metrics = m }

// Serve starts accepting connections; it returns immediately.
func Serve(l net.Listener, h Handler) *Server {
	return ServeWithHooks(l, h, nil, nil)
}

// Endpoint is the host-service surface the transport needs: request handling
// plus the VP lifecycle hooks. What daemons serve is the farm,
// core.MultiService — a single device is a farm of one; the per-device
// core.Service has the same surface for in-process tests and harnesses.
type Endpoint interface {
	Handle(vp int, req any) any
	RegisterVP(id int)
	DisconnectVP(id int)
}

// ServeEndpoint serves an endpoint with its lifecycle hooks wired the way a
// daemon wants them: RegisterVP on a VP's first hello (where a multi-GPU
// service decides the device assignment, invisibly to the client) and
// DisconnectVP — not UnregisterVP — when its last connection dies, so a VP
// that vanishes mid-batch has its orphaned jobs cancelled instead of wedging
// the batching predicate.
func ServeEndpoint(l net.Listener, ep Endpoint) *Server {
	return ServeWithHooks(l, ep.Handle, ep.RegisterVP, ep.DisconnectVP)
}

// ServeWithHooks additionally invokes the callbacks when a VP's first
// connection opens and its last connection closes — the host service uses
// them to register VPs with the VP-control batching logic and to cancel a
// disconnected VP's orphaned jobs. The hooks are refcounted per VP, so a
// client reconnect that briefly overlaps its dying predecessor does not
// bounce the VP through an unregister/register cycle.
func ServeWithHooks(l net.Listener, h Handler, onConnect, onDisconnect func(vp int)) *Server {
	s := &Server{
		l: l, h: h,
		onConnect: onConnect, onDisconnect: onDisconnect,
		conns:   map[net.Conn]struct{}{},
		vpConns: map[int]int{},
	}
	s.serving.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer s.serving.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.serving.Add(1)
		go s.serveConn(conn)
	}
}

// vpOpened refcounts a VP's connections, firing onConnect on 0→1.
func (s *Server) vpOpened(vp int) {
	s.mu.Lock()
	s.vpConns[vp]++
	first := s.vpConns[vp] == 1
	s.mu.Unlock()
	if first && s.onConnect != nil {
		s.onConnect(vp)
	}
}

// vpClosed fires onDisconnect when a VP's last connection closes.
func (s *Server) vpClosed(vp int) {
	s.mu.Lock()
	s.vpConns[vp]--
	last := s.vpConns[vp] == 0
	if last {
		delete(s.vpConns, vp)
	}
	s.mu.Unlock()
	if last && s.onDisconnect != nil {
		s.onDisconnect(vp)
	}
}

// writeGrace bounds how long a response write to a dead or stalled peer may
// block after its connection's decode loop has exited.
const writeGrace = 2 * time.Second

// serverWorkersPerConn bounds how many handler workers one connection may
// run concurrently. Work is fanned out per stream key, so
// independent streams execute in parallel while requests on one stream keep
// their wire order — the pipelining ordering guarantee.
const serverWorkersPerConn = 8

// frameBuf pools frame buffers by pointer so Put never allocates a box. One
// pool serves both directions: request frames read off the socket and the
// D2H response frames of NewD2HResp.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}

// readBufSize sizes both sides' bufio.Reader. The value is measured, not
// derived (ROADMAP 5(i)): against 64 KiB readers and otherwise identical code,
// 4 KiB reads copy-stream (256 KiB frames) x1.07 and coalesce-launch (8 and
// 32 KiB frames, which now take a second read each) x0.94. The cause of the
// gain on large frames is not known: 16 KiB readers do no better there than
// 64 KiB ones, so it is not the bytes spared a copy through the buffer.
const readBufSize = 4096

// readHello consumes a connection's hello — wireMagic, wireVersion, varint
// VP id — and returns the VP it names.
func readHello(br *bufio.Reader) (int, error) {
	var head [2]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, err
	}
	if head[0] != wireMagic || head[1] != wireVersion {
		return 0, wireError("hello opens with % x, want % x", head[:], []byte{wireMagic, wireVersion})
	}
	vp, err := binary.ReadVarint(br)
	return int(vp), err
}

// serveConn is one connection's server loop: length-prefixed binary frames,
// decoded in the read loop and handled by a bounded per-connection worker
// pool with per-stream FIFO ordering. The read loop never blocks on
// handlers, so a dying connection is noticed immediately (the PR-2
// disconnect-cancellation property) even while every worker is parked at a
// synchronous point. A peer whose hello is not this protocol version is
// closed without a reply: nothing it sends afterwards could be framed.
func (s *Server) serveConn(conn net.Conn) {
	defer s.serving.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readBufSize)
	vp, err := readHello(br)
	if err != nil {
		s.metrics.Counter("ipc.server.decode_errors").Inc()
		return
	}
	s.metrics.Counter("ipc.server.connections").Inc()

	cs := &connServer{
		s: s, conn: conn, vp: vp,
		queues: map[int][]binRequest{},
		slots:  make(chan struct{}, serverWorkersPerConn),
	}
	// The teardown order matters: vpClosed runs first (deferred last) so the
	// disconnect hook can cancel the jobs in-flight workers are blocked on,
	// then response writes are bounded by writeGrace, then the workers are
	// waited out before the connection closes.
	defer cs.wg.Wait()
	defer func() { conn.SetDeadline(time.Now().Add(writeGrace)) }()
	s.vpOpened(vp)
	defer s.vpClosed(vp)

	var hdr [4]byte
	for {
		fb := framePool.Get().(*frameBuf)
		fb.b, err = readFrame(br, &hdr, fb.b)
		if err != nil {
			// EOF, a short read, or a corrupted length prefix. The framing
			// can no longer be trusted, so close the connection; the client
			// sees a typed disconnect and redials.
			framePool.Put(fb)
			s.metrics.Counter("ipc.server.decode_errors").Inc()
			return
		}
		id, body, derr := decodeMsg(fb.b)
		if derr != nil {
			framePool.Put(fb)
			s.metrics.Counter("ipc.server.decode_errors").Inc()
			return
		}
		s.metrics.Counter("ipc.server.requests").Inc()
		cs.enqueue(binRequest{id: id, body: body, key: orderKey(body), fb: fb})
	}
}

// orderKey buckets a request for per-stream ordered execution. Requests
// without a stream (allocation lifecycle) share a key: the client issued
// them synchronously if it cared about their order.
func orderKey(body any) int {
	switch r := body.(type) {
	case H2DReq:
		return r.Stream
	case D2HReq:
		return r.Stream
	case MemsetReq:
		return r.Stream
	case LaunchReq:
		return r.Stream
	case SyncReq:
		return r.Stream
	}
	return -1
}

// binRequest is one decoded request waiting for a worker. It owns its frame
// buffer (payload views alias it) until the handler returns.
type binRequest struct {
	id   uint64
	body any
	key  int
	fb   *frameBuf
}

// connServer runs one connection's handler side: per-stream FIFO
// queues drained by at most serverWorkersPerConn workers, responses
// serialized onto the connection through a reusable encode buffer.
type connServer struct {
	s    *Server
	conn net.Conn
	vp   int

	wmu  sync.Mutex // serializes response writes; guards wbuf
	wbuf []byte

	mu      sync.Mutex
	queues  map[int][]binRequest
	running map[int]bool
	slots   chan struct{}
	wg      sync.WaitGroup
}

// enqueue appends the request to its stream's queue and starts a drainer
// for the stream if none is running. It never blocks: the worker bound is
// enforced inside the drainer, keeping the read loop wait-free.
func (cs *connServer) enqueue(r binRequest) {
	cs.mu.Lock()
	if cs.running == nil {
		cs.running = map[int]bool{}
	}
	cs.queues[r.key] = append(cs.queues[r.key], r)
	if cs.running[r.key] {
		cs.mu.Unlock()
		return
	}
	cs.running[r.key] = true
	cs.mu.Unlock()
	cs.wg.Add(1)
	go cs.drain(r.key)
}

// drain executes one stream's queued requests in FIFO order, holding a
// worker slot while it runs.
func (cs *connServer) drain(key int) {
	defer cs.wg.Done()
	cs.slots <- struct{}{}
	defer func() { <-cs.slots }()
	for {
		cs.mu.Lock()
		q := cs.queues[key]
		if len(q) == 0 {
			cs.running[key] = false
			delete(cs.queues, key)
			cs.mu.Unlock()
			return
		}
		r := q[0]
		cs.queues[key] = q[1:]
		cs.mu.Unlock()
		resp := cs.s.h(cs.vp, r.body)
		cs.writeResp(r.id, resp)
		// The handler contract: request payload views are dead once the
		// handler returns, and a response that aliases them (echo-style
		// handlers) has been copied onto the wire above — only now can the
		// frame buffer be recycled.
		framePool.Put(r.fb)
	}
}

// writeResp encodes and writes one response frame — one Write per frame.
// Write errors are ignored: the read loop notices the dead connection and
// tears down. A D2H response that still sits in its pooled frame is written
// from there; the frame is recycled here and nowhere else, once the Write has
// returned — the handler succeeded, so no job holds the buffer any more.
func (cs *connServer) writeResp(id uint64, body any) {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	if r, ok := body.(D2HResp); ok {
		if frame := r.wireFrame(id); frame != nil {
			_, _ = cs.conn.Write(frame)
			framePool.Put(r.frame)
			return
		}
	}
	var err error
	cs.wbuf, err = appendMsg(cs.wbuf, id, body)
	if err != nil {
		cs.wbuf, _ = appendMsg(cs.wbuf, id, ErrResp{Msg: err.Error()})
	}
	_, _ = cs.conn.Write(cs.wbuf)
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close stops the server and closes all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.l.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.serving.Wait()
	return err
}

// Shutdown is the graceful flavour of Close: it stops accepting new
// connections immediately, then gives in-flight requests up to grace to
// drain (clients that merely hold idle connections are cut off when the
// grace expires) before force-closing whatever remains. It returns once
// every serve loop has exited, so a final metrics snapshot taken after
// Shutdown is complete.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closed = true
	err := s.l.Close()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// DialOptions tune the TCP client's fault tolerance.
type DialOptions struct {
	// CallTimeout bounds each Call end to end, including any redial.
	// 0 means DefaultCallTimeout.
	CallTimeout time.Duration
	// BackoffBase is the first redial backoff; it doubles per consecutive
	// failed attempt up to BackoffCap and resets on success.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Faults, when non-nil and enabled, wraps every connection in the
	// deterministic fault injector.
	Faults *FaultConfig
	// Metrics, when non-nil, records client-side transport counters
	// (calls, errors, timeouts, reconnects, injected faults).
	Metrics *metrics.Registry
}

// Client timeout/backoff defaults.
const (
	DefaultCallTimeout = 30 * time.Second
	DefaultBackoffBase = 5 * time.Millisecond
	DefaultBackoffCap  = 250 * time.Millisecond
)

func (o DialOptions) withDefaults() DialOptions {
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = DefaultBackoffCap
	}
	return o
}

// Dial connects a VP to a service over TCP with default options.
func Dial(addr string, vp int) (Client, error) {
	return DialWithOptions(addr, vp, DialOptions{})
}

// DialWithOptions connects a VP to a service over TCP. The initial dial is a
// single attempt (an unreachable service fails fast); once connected, a
// broken connection is redialed lazily by the next Call with capped
// exponential backoff, bounded by that Call's deadline.
func DialWithOptions(addr string, vp int, opts DialOptions) (Client, error) {
	opts = opts.withDefaults()
	c := &binClient{addr: addr, vp: vp, opts: opts, backoff: opts.BackoffBase, pending: map[uint64]*pendingCall{}}
	if err := c.connect(time.Now().Add(opts.CallTimeout)); err != nil {
		return nil, err
	}
	return c, nil
}

// --- VP Control ---

// Gate is the VP Control primitive: the service stops and resumes a VP's
// progress to interleave synchronous kernel invocations (paper Fig. 4b). The
// VP calls Wait before each GPU operation; the service toggles Stop/Resume.
type Gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stopped bool
}

// NewGate returns an open gate.
func NewGate() *Gate {
	g := &Gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Stop blocks future Wait calls until Resume.
func (g *Gate) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
}

// Resume releases the gate.
func (g *Gate) Resume() {
	g.mu.Lock()
	g.stopped = false
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Wait blocks while the gate is stopped.
func (g *Gate) Wait() {
	g.mu.Lock()
	for g.stopped {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Stopped reports whether the gate is currently stopped.
func (g *Gate) Stopped() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stopped
}
