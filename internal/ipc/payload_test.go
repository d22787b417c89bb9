package ipc

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// pattern fills b with bytes that depend on the position and on seed, so a
// payload that was shifted, truncated or swapped with another compares
// unequal.
func pattern(b []byte, seed int) []byte {
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// payloadHandler is a handler shaped like core's: a D2H is served from a
// pooled response frame (NewD2HResp), an H2D is acknowledged with a checksum
// of the bytes that arrived.
func payloadHandler(vp int, req any) any {
	switch r := req.(type) {
	case H2DReq:
		sum := 0
		for _, b := range r.Data {
			sum += int(b)
		}
		return OKResp{End: float64(sum)}
	case D2HReq:
		resp := NewD2HResp(r.N)
		pattern(resp.Data, r.Off)
		resp.End = float64(r.N)
		return resp
	}
	return OKResp{}
}

// tapConn records what a connection carries: every Write call's bytes (and
// so the number of calls) and everything read.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	read   []byte
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read = append(c.read, b[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) written() (calls int, all []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.writes {
		all = append(all, w...)
	}
	return len(c.writes), all
}

// tapListener taps every accepted connection.
type tapListener struct {
	net.Listener
	conns chan *tapConn
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	l.conns <- tc
	return tc, nil
}

// clientOver builds a binary client on an established connection instead of
// dialing one, so a test chooses what kind of net.Conn the client writes to.
func clientOver(t *testing.T, conn net.Conn, vp int) *binClient {
	t.Helper()
	if _, err := conn.Write(appendHello(nil, vp)); err != nil {
		t.Fatal(err)
	}
	c := &binClient{vp: vp, opts: DialOptions{}.withDefaults(), pending: map[uint64]*pendingCall{}, conn: conn, gen: 1}
	go c.readLoop(conn, 1)
	return c
}

// TestOneWritePerFrame drives the same H2D / launch / D2H script over a bare
// TCP connection (H2D leaves as one writev), over a Write-recording wrapper
// and over the fault injector on top of that wrapper (neither is a
// *net.TCPConn, so the frame is assembled). On every connection kind the
// server must receive the same bytes, and on the wrapped ones each frame must
// be exactly one Write — in both directions — because the injector rolls its
// seeded schedule once per Write and that has to mean once per frame.
func TestOneWritePerFrame(t *testing.T) {
	big := pattern(make([]byte, 256<<10), 3)
	small := pattern(make([]byte, 100), 5)
	const frames = 6
	script := func(t *testing.T, c *binClient) {
		t.Helper()
		for _, data := range [][]byte{big, small} {
			sum := 0
			for _, b := range data {
				sum += int(b)
			}
			if ok, err := c.CallH2D(H2DReq{Stream: 1, Dst: 0x100, Off: 8, Data: data}); err != nil || ok.End != float64(sum) {
				t.Fatalf("H2D of %d bytes: %v, %v (want checksum %d)", len(data), ok, err, sum)
			}
		}
		if _, err := c.CallLaunch(LaunchReq{Kernel: "vectorAdd", Grid: 1, Block: 1}); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{len(big), 64} {
			d, err := c.CallD2H(D2HReq{Src: 0x100, Off: n % 251, N: n})
			if err != nil || d.End != float64(n) || !bytes.Equal(d.Data, pattern(make([]byte, n), n%251)) {
				t.Fatalf("D2H of %d bytes: err %v, End %v, %d bytes back", n, err, d.End, len(d.Data))
			}
		}
		if _, err := c.CallMemset(MemsetReq{Dst: 0x100, N: 16, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}

	// run returns what the server read and wrote, and the client-side tap if
	// the wrapper installed one.
	run := func(t *testing.T, wrap func(net.Conn) (net.Conn, *tapConn)) (serverIn []byte, serverWrites int, serverOut []byte, client *tapConn) {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		taps := make(chan *tapConn, 1)
		srv := Serve(tapListener{Listener: l, conns: taps}, payloadHandler)
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn, client := wrap(raw)
		c := clientOver(t, conn, 2)
		script(t, c)
		c.Close()
		srv.Close()
		server := <-taps
		serverWrites, serverOut = server.written()
		return server.read, serverWrites, serverOut, client
	}

	wantIn, wantWrites, wantOut, _ := run(t, func(c net.Conn) (net.Conn, *tapConn) { return c, nil })
	if wantWrites != frames {
		t.Fatalf("server answered %d frames in %d Writes", frames, wantWrites)
	}
	// A fault config that is enabled (so the injector wraps the connection
	// and rolls per Write) and injects nothing that changes a byte.
	harmless := FaultConfig{Seed: 1, Delay: 1, MaxDelay: time.Nanosecond}
	for name, wrap := range map[string]func(net.Conn) (net.Conn, *tapConn){
		"wrapper": func(c net.Conn) (net.Conn, *tapConn) { tc := &tapConn{Conn: c}; return tc, tc },
		"fault injector": func(c net.Conn) (net.Conn, *tapConn) {
			tc := &tapConn{Conn: c}
			return WrapFaultyMetrics(tc, harmless, nil), tc
		},
	} {
		in, writes, out, client := run(t, wrap)
		if !bytes.Equal(in, wantIn) {
			t.Errorf("%s: server read %d bytes that differ from the vectored path's %d", name, len(in), len(wantIn))
		}
		if writes != frames || !bytes.Equal(out, wantOut) {
			t.Errorf("%s: server wrote %d frames in %d Writes (%d bytes, vectored run %d)", name, frames, writes, len(out), len(wantOut))
		}
		calls, sent := client.written()
		if calls != 1+frames { // the hello, then one Write per request frame
			t.Errorf("%s: client sent hello + %d frames in %d Writes", name, frames, calls)
		}
		if !bytes.Equal(sent, wantIn) {
			t.Errorf("%s: client wrote %d bytes, server read %d", name, len(sent), len(wantIn))
		}
	}
}

// TestOversizeFrameRefusedBeforeWrite: a payload that cannot fit a frame is
// refused by the client with ErrFrameTooLarge — not retryable — on the typed
// and on the boxed path, before a byte of it is written: the server sees no
// request, the connection is not torn down, and the next call uses it. (The
// server would take the frame for corruption and close the connection, and an
// idempotent retry would redial and resend the same doomed frame.) The slice
// is never touched, so it costs address space only.
func TestOversizeFrameRefusedBeforeWrite(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	handler := func(vp int, req any) any {
		if r, ok := req.(H2DReq); ok {
			mu.Lock()
			seen = append(seen, len(r.Data))
			mu.Unlock()
		}
		return OKResp{}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, handler)
	defer srv.Close()
	reg := metrics.New()
	c, err := DialWithOptions(srv.Addr().String(), 1, DialOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	huge := H2DReq{Dst: 0x100, Data: make([]byte, maxFrame+1)}
	_, typedErr := c.(TypedCaller).CallH2D(huge)
	_, boxedErr := c.Call(huge)
	for path, err := range map[string]error{"CallH2D": typedErr, "Call": boxedErr} {
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: err %v, want ErrFrameTooLarge", path, err)
		}
		if IsRetryable(err) {
			t.Errorf("%s: %v is reported retryable", path, err)
		}
	}
	// The largest payload that does fit is not refused by the size check (it
	// is not sent: encoding the head is enough to know).
	fits := H2DReq{Data: huge.Data[:maxFrame-64]}
	if _, err := appendH2DHead(nil, 1, fits); err != nil {
		t.Errorf("a frame under the cap is refused: %v", err)
	}
	if _, err := c.(TypedCaller).CallH2D(H2DReq{Dst: 0x100, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatalf("call after the refused ones: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != 3 {
		t.Errorf("server saw H2D payloads %v, want only the 3-byte one", seen)
	}
	if n := reg.Counter("ipc.client.reconnects").Value(); n != 0 {
		t.Errorf("%d reconnects, want 0", n)
	}
}

// scriptedResponder is a raw server for one connection: it reads request
// frames and answers request number i (from 0), of message type typ, with
// whatever reply returns, written in one Write; nil closes the connection.
func scriptedResponder(t *testing.T, reply func(i int, typ byte, id uint64) []byte) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := readHello(br); err != nil {
			return
		}
		var hdr [4]byte
		var buf []byte
		for i := 0; ; i++ {
			if buf, err = readFrame(br, &hdr, buf); err != nil {
				return
			}
			rd := wireReader{b: buf}
			out := reply(i, rd.byte(), rd.uvarint())
			if out == nil {
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// d2hFrame encodes a complete D2HResp frame.
func d2hFrame(t *testing.T, id uint64, data []byte, end float64) []byte {
	t.Helper()
	frame, err := appendMsg(nil, id, D2HResp{Data: data, End: end})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestSplitD2HReadHostileFrames feeds the client's split D2H read (head from
// the buffered window, payload straight off the socket) frames a hostile or
// broken server could send. A bad frame fails the pending call with a typed
// disconnect and allocates nothing for the payload it announces; a good one
// of any size is delivered, and the read never runs past the frame's end into
// the next one.
func TestSplitD2HReadHostileFrames(t *testing.T) {
	dial := func(t *testing.T, reply func(i int, typ byte, id uint64) []byte) TypedCaller {
		t.Helper()
		c, err := DialWithOptions(scriptedResponder(t, reply), 1, DialOptions{CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c.(TypedCaller)
	}
	wantMalformedDisconnect := func(t *testing.T, err error) {
		t.Helper()
		var de *DisconnectError
		if !errors.As(err, &de) || !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("err %v, want a *DisconnectError wrapping ErrMalformedFrame", err)
		}
	}
	payload := pattern(make([]byte, 8<<10), 9)

	t.Run("announced length is not the frame remainder", func(t *testing.T) {
		for _, delta := range []int{-1, +1} {
			tc := dial(t, func(i int, typ byte, id uint64) []byte {
				// A well-formed head announcing len(payload)+delta bytes in a
				// frame that carries len(payload).
				head, _ := appendD2HRespHead(nil, id, 1, len(payload)+delta)
				frame, _ := finishFrame(append(head, payload...))
				return frame
			})
			_, err := tc.CallD2H(D2HReq{N: len(payload)})
			wantMalformedDisconnect(t, err)
		}
	})
	t.Run("frame length over the cap", func(t *testing.T) {
		tc := dial(t, func(i int, typ byte, id uint64) []byte {
			frame := d2hFrame(t, id, payload, 1)
			frame[3] = 0x7F // length prefix far beyond maxFrame
			return frame
		})
		_, err := tc.CallD2H(D2HReq{N: len(payload)})
		wantMalformedDisconnect(t, err)
	})
	t.Run("truncated mid-payload", func(t *testing.T) {
		tc := dial(t, func(i int, typ byte, id uint64) []byte {
			if i > 0 {
				return nil
			}
			frame := d2hFrame(t, id, payload, 1)
			return frame[:len(frame)/2] // then the next request closes the conn
		})
		done := make(chan error, 1)
		go func() {
			_, err := tc.CallD2H(D2HReq{N: len(payload)})
			done <- err
		}()
		// The second request makes the responder hang up with the first
		// call's payload half delivered.
		_, err2 := tc.CallD2H(D2HReq{Stream: 1, N: 1})
		err := <-done
		var de *DisconnectError
		if !errors.As(err, &de) || !IsRetryable(err) {
			t.Fatalf("half-delivered D2H: err %v, want a retryable *DisconnectError", err)
		}
		if err2 == nil {
			t.Fatal("call on the hung-up connection succeeded")
		}
	})
	t.Run("size sweep, next frame intact", func(t *testing.T) {
		// Payloads from empty to well past the read buffer, bracketing the
		// sizes at which the frame fills the bufio window exactly. The
		// responder holds the D2H's answer back until a second request has
		// arrived and then writes both answers in one Write, so the D2H frame
		// is followed at once by a frame its read must leave untouched.
		for _, n := range []int{0, 1, 100, 1 << 10, readBufSize - d2hHeadMax, readBufSize - 4, readBufSize, readBufSize + 1, 64 << 10} {
			want := pattern(make([]byte, n), n)
			ids := map[byte]uint64{}
			tc := dial(t, func(i int, typ byte, id uint64) []byte {
				ids[typ] = id
				if len(ids) < 2 {
					return []byte{}
				}
				ok, err := appendMsg(nil, ids[msgMemsetReq], OKResp{End: 7})
				if err != nil {
					t.Error(err)
				}
				return append(d2hFrame(t, ids[msgD2HReq], want, 2.5), ok...)
			})
			got := make(chan D2HResp, 1)
			go func() {
				d, err := tc.CallD2H(D2HReq{N: n})
				if err != nil {
					t.Errorf("n=%d: %v", n, err)
				}
				got <- d
			}()
			ok, err := tc.CallMemset(MemsetReq{Stream: 1})
			if err != nil || ok.End != 7 {
				t.Fatalf("n=%d: frame after the D2H: %v, %v", n, ok, err)
			}
			if d := <-got; d.End != 2.5 || !bytes.Equal(d.Data, want) {
				t.Fatalf("n=%d: D2H delivered End %v and %d bytes", n, d.End, len(d.Data))
			}
		}
	})
}

// TestD2HStalledMidPayloadTimesOut: a server that sends a D2H response's head
// and half its payload and then goes silent — without hanging up — must not
// hold the call past its deadline. The call keeps its pending slot while the
// read loop is blocked on the payload, so it times out on schedule with a
// *TimeoutError; no frame arrived during the wait, so the connection is
// dropped, and the next call redials and is served.
func TestD2HStalledMidPayloadTimesOut(t *testing.T) {
	payload := pattern(make([]byte, 64<<10), 11)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release); l.Close() })
	go func() {
		for accepted := 0; ; accepted++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(stall bool) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := readHello(br); err != nil {
					return
				}
				var hdr [4]byte
				var buf []byte
				for {
					if buf, err = readFrame(br, &hdr, buf); err != nil {
						return
					}
					rd := wireReader{b: buf}
					rd.byte()
					frame := d2hFrame(t, rd.uvarint(), payload, 1)
					if stall {
						conn.Write(frame[:len(frame)/2])
						<-release
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}(accepted == 0)
		}
	}()

	const callTimeout = 300 * time.Millisecond
	reg := metrics.New()
	c, err := DialWithOptions(l.Addr().String(), 1, DialOptions{CallTimeout: callTimeout, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := c.(TypedCaller)

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := tc.CallD2H(D2HReq{N: len(payload)})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * callTimeout):
		t.Fatalf("CallD2H still blocked %v after a %v deadline", time.Since(start), callTimeout)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("stalled D2H: err %v, want a *TimeoutError", err)
	}
	if waited := time.Since(start); waited < callTimeout {
		t.Fatalf("timed out after %v, before the %v deadline", waited, callTimeout)
	}

	d, err := tc.CallD2H(D2HReq{N: len(payload)})
	if err != nil || !bytes.Equal(d.Data, payload) {
		t.Fatalf("D2H after the stall: err %v, %d bytes back", err, len(d.Data))
	}
	if n := reg.Counter("ipc.client.reconnects").Value(); n != 1 {
		t.Errorf("%d reconnects, want 1 (the stalled connection dropped, one redial)", n)
	}
}
