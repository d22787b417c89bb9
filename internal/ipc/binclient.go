package ipc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/devmem"
	"repro/internal/metrics"
)

// binClient is the TCP client, with request pipelining: any number of
// goroutines may Call concurrently on one connection. Each call writes its
// frame under writeMu and parks on a pooled pending-call slot; a single
// reader goroutine demultiplexes responses by request ID. Every call has a
// deadline, a broken connection is redialed lazily with capped backoff, and
// failures surface as the typed transport errors of errors.go. Because
// frames are self-delimiting, a call that times out abandons only its own
// pending slot — the connection (and every other in-flight call) survives,
// and the late response is discarded as stale when it finally arrives.
type binClient struct {
	addr string
	vp   int
	opts DialOptions

	writeMu sync.Mutex  // serializes frame writes; guards wbuf, vec, vecBuf
	wbuf    []byte      // reusable encode buffer
	vec     net.Buffers // head + payload of one vectored write, over vecBuf
	vecBuf  [2][]byte

	mu      sync.Mutex // connection + pending-call state
	conn    net.Conn
	gen     int // connection generation; stale teardown requests are ignored
	connSeq int64
	closed  bool
	backoff time.Duration
	nextID  uint64
	pending map[uint64]*pendingCall

	// recvSeq counts frames delivered by the read loop — the connection
	// liveness signal consulted on timeout (see await).
	recvSeq atomic.Uint64
}

// pendingCall is one in-flight request's parking slot. Slots are pooled:
// the channel and timer are reused across calls, so a steady-state call
// allocates nothing for its bookkeeping.
type pendingCall struct {
	ch    chan struct{} // buffered(1); exactly one signal per flight
	timer *time.Timer

	// Decoded response (exactly one is meaningful, selected by kind).
	kind   byte
	ok     OKResp
	d2h    D2HResp
	malloc MallocResp
	over   OverloadResp
	ckpt   CheckpointResp
	errMsg string
	err    error // transport-level failure, nil on delivery
}

var pendingPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &pendingCall{ch: make(chan struct{}, 1), timer: t}
}}

func getPending() *pendingCall {
	p := pendingPool.Get().(*pendingCall)
	p.kind, p.ok, p.d2h, p.malloc, p.over, p.ckpt, p.errMsg, p.err = 0, OKResp{}, D2HResp{}, MallocResp{}, OverloadResp{}, CheckpointResp{}, "", nil
	return p
}

// putPending returns a resolved slot to the pool, draining a concurrently
// fired (but unconsumed) timer so the next flight starts clean.
func putPending(p *pendingCall) {
	if !p.timer.Stop() {
		select {
		case <-p.timer.C:
		default:
		}
	}
	pendingPool.Put(p)
}

// connect establishes one connection, writes the binary hello, and starts
// the reader. The caller must not hold mu.
func (c *binClient) connect(deadline time.Time) error {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return &TimeoutError{Op: "connect", After: c.opts.CallTimeout}
	}
	conn, err := net.DialTimeout("tcp", c.addr, remaining)
	if err != nil {
		return transportErr("connect", err, c.opts.CallTimeout)
	}
	if c.opts.Faults != nil {
		fc := *c.opts.Faults
		c.mu.Lock()
		fc.Seed += c.connSeq
		c.connSeq++
		c.mu.Unlock()
		conn = WrapFaultyMetrics(conn, fc, c.opts.Metrics)
	}
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(appendHello(make([]byte, 0, 16), c.vp)); err != nil {
		conn.Close()
		return transportErr("connect", err, c.opts.CallTimeout)
	}
	conn.SetWriteDeadline(time.Time{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return ErrClientClosed
	}
	if c.conn != nil {
		// A racing reconnect already produced a live connection; use it.
		conn.Close()
		return nil
	}
	c.conn = conn
	c.gen++
	c.backoff = c.opts.BackoffBase
	go c.readLoop(conn, c.gen)
	return nil
}

// reconnect redials with capped exponential backoff until the deadline.
func (c *binClient) reconnect(deadline time.Time) error {
	c.opts.Metrics.Counter("ipc.client.reconnects").Inc()
	for {
		err := c.connect(deadline)
		if err == nil || err == ErrClientClosed {
			return err
		}
		c.mu.Lock()
		sleep := c.backoff
		c.backoff *= 2
		if c.backoff > c.opts.BackoffCap {
			c.backoff = c.opts.BackoffCap
		}
		c.mu.Unlock()
		if time.Now().Add(sleep).After(deadline) {
			return err
		}
		time.Sleep(sleep)
	}
}

// failConn tears down one connection generation: the conn is closed and
// every pending call fails with a typed, retryable transport error. Stale
// generations (a newer connection is already live) are ignored.
func (c *binClient) failConn(gen int, cause error) {
	c.mu.Lock()
	if gen != c.gen || c.conn == nil {
		c.mu.Unlock()
		return
	}
	c.conn.Close()
	c.conn = nil
	calls := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.mu.Unlock()
	err := transportErr("read", cause, c.opts.CallTimeout)
	for _, p := range calls {
		p.err = err
		p.ch <- struct{}{}
	}
}

// take removes and returns the pending call waiting for id — the read loop
// owns the slot from here on — or nil, counted as stale, when the call was
// abandoned (timed out): the framing is intact, so its late response can
// safely be skipped.
func (c *binClient) take(id uint64) *pendingCall {
	c.mu.Lock()
	p := c.pending[id]
	if p != nil {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if p == nil {
		c.opts.Metrics.Counter("ipc.client.stale_responses").Inc()
	}
	return p
}

// failCall fails a call the read loop has taken, and the connection with it:
// a response that is malformed or cut short means the stream can't be
// trusted.
func (c *binClient) failCall(p *pendingCall, gen int, cause error) {
	p.err = &DisconnectError{Op: "read", Cause: cause}
	p.ch <- struct{}{}
	c.failConn(gen, cause)
}

// readLoop is the demultiplexer: it reads frames, matches them to pending
// calls by request ID, and decodes the typed response directly into the
// call's slot (no interface boxing on the hot path). A D2H response is never
// read whole: its head is parsed from the buffered window and its payload
// goes from the socket into the caller-owned result (readD2HResp), the only
// copy and the only allocation the client makes of it.
func (c *binClient) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReaderSize(conn, readBufSize)
	var hdr [4]byte
	var buf []byte
	for {
		n, err := readFrameLen(br, &hdr)
		if err != nil {
			c.failConn(gen, err)
			return
		}
		head, err := br.Peek(min(n, d2hHeadMax-4))
		if err != nil {
			c.failConn(gen, err)
			return
		}
		if head[0] == msgD2HResp {
			if err := c.readD2HResp(br, head, n); err != nil {
				c.failConn(gen, err)
				return
			}
			continue
		}
		if buf, err = readFrameBody(br, n, buf); err != nil {
			c.failConn(gen, err)
			return
		}
		c.recvSeq.Add(1)
		rd := wireReader{b: buf}
		typ := rd.byte()
		id := rd.uvarint()
		if rd.err != nil {
			c.failConn(gen, rd.err)
			return
		}
		p := c.take(id)
		if p == nil {
			continue
		}
		p.kind = typ
		switch typ {
		case msgOKResp:
			p.ok = OKResp{End: rd.float64()}
		case msgErrResp:
			p.errMsg = rd.string()
		case msgOverloadResp:
			p.over = OverloadResp{Msg: rd.string()}
			p.over.Backoff = time.Duration(rd.varint())
			p.over.Retryable = rd.byte() != 0
		case msgMallocResp:
			p.malloc = MallocResp{Ptr: devmem.Ptr(rd.uvarint())}
		case msgCheckpointResp:
			p.ckpt = CheckpointResp{Data: append([]byte(nil), rd.bytesView()...)}
		default:
			rd.fail("unexpected response type %d", typ)
		}
		if derr := rd.done(); derr != nil {
			c.failCall(p, gen, derr)
			return
		}
		p.ch <- struct{}{}
	}
}

// readD2HResp reads the rest of a D2HResp frame of n bytes whose first bytes
// are head (peeked, not yet consumed). Nothing is allocated until the head
// has been checked against the frame length and a call is found waiting. The
// call keeps its slot while the payload is being read — the read loop takes
// it only once the whole frame is in memory — so a peer that stalls
// mid-payload leaves the caller free to time out on schedule and, with no
// frame delivered meanwhile, to drop the connection (see await), which is
// what unblocks this read. A non-nil return means the stream can no longer be
// trusted; the caller fails the connection, and the waiting call with it.
func (c *binClient) readD2HResp(br *bufio.Reader, head []byte, n int) error {
	headLen, id, end, size, err := parseD2HRespHead(head, n)
	if err != nil {
		return err
	}
	br.Discard(headLen) // peeked above, cannot fail
	c.mu.Lock()
	_, waiting := c.pending[id]
	c.mu.Unlock()
	var data []byte
	if waiting {
		data = make([]byte, size)
		_, err = io.ReadFull(br, data)
	} else {
		_, err = br.Discard(size)
	}
	if err != nil {
		return err
	}
	c.recvSeq.Add(1)
	// A call that timed out while its payload was arriving is stale like any
	// other: its bytes are dropped.
	if p := c.take(id); p != nil {
		p.kind = msgD2HResp
		p.d2h = D2HResp{Data: data, End: end}
		p.ch <- struct{}{}
	}
	return nil
}

// begin registers a new in-flight request, redialing first if the
// connection is down. It returns the request ID, the parking slot, and the
// connection (plus its generation) the frame must be written to.
func (c *binClient) begin(deadline time.Time) (uint64, *pendingCall, net.Conn, int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, nil, 0, ErrClientClosed
	}
	if c.conn == nil {
		c.mu.Unlock()
		if err := c.reconnect(deadline); err != nil {
			return 0, nil, nil, 0, err
		}
		c.mu.Lock()
		if c.closed || c.conn == nil {
			c.mu.Unlock()
			return 0, nil, nil, 0, ErrClientClosed
		}
	}
	c.nextID++
	id := c.nextID
	p := getPending()
	c.pending[id] = p
	if len(c.pending) > 1 {
		c.opts.Metrics.Counter("ipc.client.pipelined_calls").Inc()
	}
	c.opts.Metrics.Histogram("ipc.client.inflight", metrics.DepthBuckets).
		Observe(float64(len(c.pending)))
	conn, gen := c.conn, c.gen
	c.mu.Unlock()
	return id, p, conn, gen, nil
}

// abandon resolves a call's slot after a local failure (timeout, write
// error). If the reader or a teardown got to the slot first, the signal is
// drained so the slot can be pooled.
func (c *binClient) abandon(id uint64, p *pendingCall) {
	c.mu.Lock()
	_, mine := c.pending[id]
	if mine {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if !mine {
		<-p.ch
	}
	putPending(p)
}

// sendLocked writes one frame: the bytes sitting in c.wbuf followed by
// payload, which a TCP connection takes from the caller's slice in the same
// writev as the head. Any other net.Conn (the fault injector, a wrapper) gets
// the frame assembled in c.wbuf and one Write, so that one frame is never two
// Writes. Callers hold writeMu.
func (c *binClient) sendLocked(conn net.Conn, gen int, deadline time.Time, payload []byte) error {
	conn.SetWriteDeadline(deadline)
	var err error
	if tcp, ok := conn.(*net.TCPConn); ok && len(payload) > 0 {
		c.vecBuf = [2][]byte{c.wbuf, payload}
		c.vec = c.vecBuf[:] // WriteTo consumes c.vec, not the array under it
		_, err = c.vec.WriteTo(tcp)
		c.vecBuf[1] = nil // on every path: the caller's slice is not ours to keep
	} else {
		c.wbuf = append(c.wbuf, payload...)
		_, err = conn.Write(c.wbuf)
	}
	if err != nil {
		c.failConn(gen, err)
		return transportErr("write", err, c.opts.CallTimeout)
	}
	return nil
}

// await parks until the response is delivered or the deadline fires. The
// deadline is HARD: the liveness heuristic below only decides whether the
// connection is torn down on timeout, never whether this call keeps
// waiting — a server that answers every request except this one (frames keep
// arriving, recvSeq keeps advancing) still times this call out on schedule.
// TestBinClientStarvedCallHardDeadline pins that property. Timeout abandons
// only this call; other in-flight calls are untouched, and the connection
// normally survives (the self-delimiting framing lets the late response be
// discarded by ID). The exception is a connection with no sign of life: if
// not a single frame arrived during the whole wait, the peer is dead or
// wedged mid-frame (e.g. a corrupted length prefix made the server swallow
// our requests as payload), so the connection is dropped and the next call
// redials. Slot ownership: on a non-nil error the slot has already been
// returned to the pool — the caller must not touch p again. On nil the
// caller owns the slot (reads the response, then pools it).
func (c *binClient) await(id uint64, p *pendingCall, gen int, deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		c.abandon(id, p)
		return &TimeoutError{Op: "read", After: c.opts.CallTimeout}
	}
	startSeq := c.recvSeq.Load()
	p.timer.Reset(d)
	select {
	case <-p.ch:
		if p.err != nil {
			err := p.err
			putPending(p)
			return err
		}
		return nil
	case <-p.timer.C:
		c.abandon(id, p)
		if c.recvSeq.Load() == startSeq {
			c.failConn(gen, &TimeoutError{Op: "read", After: c.opts.CallTimeout})
		}
		return &TimeoutError{Op: "read", After: c.opts.CallTimeout}
	}
}

// countErr records a failed call: every error but a local Close counts, and
// timeouts are counted separately as well.
func (c *binClient) countErr(err error) {
	if err != nil && err != ErrClientClosed {
		c.opts.Metrics.Counter("ipc.client.errors").Inc()
		var te *TimeoutError
		if errors.As(err, &te) {
			c.opts.Metrics.Counter("ipc.client.timeouts").Inc()
		}
	}
}

// exchange is the client's one request/response sequence: register the call
// (redialing first if need be), encode its frame head with enc and write it,
// with any payload behind it, under writeMu, park until the response or the
// deadline, and let dec pick the reply the caller wants out of the slot (false
// for any other kind). enc and dec are top-level functions and the request is
// passed by value, so a typed call boxes nothing and allocates no closure.
func exchange[Req, Resp any](c *binClient, req Req, enc func([]byte, uint64, Req) ([]byte, error),
	payload []byte, dec func(*pendingCall) (Resp, bool)) (resp Resp, err error) {
	c.opts.Metrics.Counter("ipc.client.calls").Inc()
	defer func() { c.countErr(err) }()
	deadline := time.Now().Add(c.opts.CallTimeout)
	id, p, conn, gen, err := c.begin(deadline)
	if err != nil {
		return resp, err
	}
	c.writeMu.Lock()
	if c.wbuf, err = enc(c.wbuf, id, req); err == nil {
		err = c.sendLocked(conn, gen, deadline, payload)
	}
	c.writeMu.Unlock()
	if err != nil {
		c.abandon(id, p)
		return resp, err
	}
	if err := c.await(id, p, gen, deadline); err != nil {
		return resp, err
	}
	defer putPending(p)
	if r, ok := dec(p); ok {
		return r, nil
	}
	switch p.kind {
	case msgErrResp:
		return resp, fmt.Errorf("ipc: %s", p.errMsg)
	case msgOverloadResp:
		return resp, &OverloadError{Msg: p.over.Msg, Backoff: p.over.Backoff, Retryable: p.over.Retryable}
	}
	return resp, wireError("unexpected response kind %d", p.kind)
}

// The response decoders of exchange.

func okReply(p *pendingCall) (OKResp, bool)   { return p.ok, p.kind == msgOKResp }
func d2hReply(p *pendingCall) (D2HResp, bool) { return p.d2h, p.kind == msgD2HResp }

// anyReply boxes whichever success reply arrived.
func anyReply(p *pendingCall) (any, bool) {
	switch p.kind {
	case msgOKResp:
		return p.ok, true
	case msgMallocResp:
		return p.malloc, true
	case msgD2HResp:
		return p.d2h, true
	case msgCheckpointResp:
		return p.ckpt, true
	}
	return nil, false
}

// Call implements Client. Request and response are boxed; latency-critical
// paths use the typed methods below instead.
func (c *binClient) Call(req any) (any, error) {
	return exchange(c, req, appendMsg, nil, anyReply)
}

// CallH2D is the zero-boxing host-to-device fast path. The payload is never
// copied in user space on a TCP connection, and a frame over the wire's cap
// is refused (ErrFrameTooLarge) before anything is written.
func (c *binClient) CallH2D(req H2DReq) (OKResp, error) {
	return exchange(c, req, appendH2DHead, req.Data, okReply)
}

// CallD2H is the typed device-to-host fast path; the returned Data is
// caller-owned (its allocation is the one unavoidable alloc of a D2H, and the
// read loop fills it from the socket).
func (c *binClient) CallD2H(req D2HReq) (D2HResp, error) {
	return exchange(c, req, appendD2HReq, nil, d2hReply)
}

// CallMemset is the typed memset fast path.
func (c *binClient) CallMemset(req MemsetReq) (OKResp, error) {
	return exchange(c, req, appendMemsetReq, nil, okReply)
}

// CallLaunch is the typed kernel-launch fast path.
func (c *binClient) CallLaunch(req LaunchReq) (OKResp, error) {
	return exchange(c, req, appendLaunchReq, nil, okReply)
}

func (c *binClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	calls := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.mu.Unlock()
	for _, p := range calls {
		p.err = ErrClientClosed
		p.ch <- struct{}{}
	}
	return err
}
