package ipc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// baseSeed lets CI run the fault matrix under several seeds
// (SIGMAVP_FAULT_SEED); locally the default keeps runs reproducible.
func baseSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("SIGMAVP_FAULT_SEED")
	if s == "" {
		return 1
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("SIGMAVP_FAULT_SEED=%q: %v", s, err)
	}
	return n
}

func TestParseFaults(t *testing.T) {
	cfg, err := ParseFaults("seed=7,drop=0.05,delay=0.2,maxdelay=5ms,corrupt=0.02,disconnect=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Drop != 0.05 || cfg.Delay != 0.2 ||
		cfg.MaxDelay != 5*time.Millisecond || cfg.Corrupt != 0.02 || cfg.Disconnect != 0.01 {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg, err := ParseFaults(""); err != nil || cfg.enabled() {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	// delay without maxdelay gets a default
	cfg, err = ParseFaults("delay=0.5")
	if err != nil || cfg.MaxDelay <= 0 {
		t.Fatalf("delay default: %+v, %v", cfg, err)
	}
	for _, bad := range []string{"drop=2", "bogus=1", "drop", "seed=x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestCallDeadline: a server that never answers must not hang the client —
// Call returns a typed *TimeoutError within its deadline.
func TestCallDeadline(t *testing.T) {
	silent := func(vp int, req any) any {
		time.Sleep(2 * time.Second)
		return OKResp{}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, silent)
	defer srv.Close()

	c, err := DialWithOptions(srv.Addr().String(), 1, DialOptions{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call(SyncReq{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against silent server succeeded")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *TimeoutError, got %T: %v", err, err)
	}
	if !IsRetryable(err) {
		t.Fatal("timeout should be retryable")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Call blocked %v past its 50ms deadline", elapsed)
	}
}

// TestCorruptFrameClosesConn: a frame the server cannot decode must close
// the connection. It never answers with an ErrResp: the framing is lost, so
// whatever it wrote could be misread as the reply to a different call.
func TestCorruptFrameClosesConn(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHello(nil, 3)); err != nil {
		t.Fatal(err)
	}
	// A length prefix far past maxFrame, then half-close so the server sees
	// a corrupt frame rather than EOF between frames.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if n != 0 || err != io.EOF {
		t.Fatalf("want bare EOF (closed conn, no ErrResp bytes), got n=%d err=%v", n, err)
	}
}

// TestLegacyHelloRejected: a peer that does not open with this protocol's
// magic and version — the retired gob stream's hello, or a binary hello of
// another version — is closed without a reply and counted as a decode
// error, never registered as a VP.
func TestLegacyHelloRejected(t *testing.T) {
	// What gob.NewEncoder(conn).Encode(struct{ VP int }{3}) used to put on
	// the wire for the type named "hello".
	gobHello := []byte{
		0x19, 0x7f, 0x03, 0x01, 0x01, 0x05, 0x68, 0x65, 0x6c, 0x6c, 0x6f, 0x01, 0xff, 0x80, 0x00, 0x01,
		0x01, 0x01, 0x02, 0x56, 0x50, 0x01, 0x04, 0x00, 0x00, 0x00, 0x05, 0xff, 0x80, 0x01, 0x06, 0x00,
	}
	oldVersion := appendHello(nil, 3)
	oldVersion[1] = wireVersion - 1

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var vps atomic.Int32
	srv := ServeWithHooks(l, echoHandler, func(int) { vps.Add(1) }, nil)
	reg := metrics.New()
	srv.SetMetrics(reg)
	defer srv.Close()

	for i, hello := range [][]byte{gobHello, oldVersion} {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(make([]byte, 64))
		conn.Close()
		if n != 0 || err != io.EOF {
			t.Fatalf("hello %d: want bare EOF, got n=%d err=%v", i, n, err)
		}
		if got := reg.Counter("ipc.server.decode_errors").Value(); got != int64(i+1) {
			t.Fatalf("hello %d: decode_errors = %d, want %d", i, got, i+1)
		}
	}
	srv.Close()
	if got := reg.Counter("ipc.server.connections").Value(); got != 0 || vps.Load() != 0 {
		t.Fatalf("rejected peers were admitted: connections=%d, VPs registered=%d", got, vps.Load())
	}
}

// TestRequestIDDiscardsStaleResponse: a response frame whose ID does not
// match an in-flight request must be discarded, not delivered. The raw
// server answers every request with a stray ErrResp under a bogus ID before
// the real reply.
func TestRequestIDDiscardsStaleResponse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
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
		var buf, out []byte
		for {
			if buf, err = readFrame(br, &hdr, buf); err != nil {
				return
			}
			id, _, err := decodeMsg(buf)
			if err != nil {
				t.Errorf("raw server: %v", err)
				return
			}
			// A stray error response from some earlier, abandoned exchange.
			out, _ = appendMsg(out, id+1000, ErrResp{Msg: "stray"})
			if _, err := conn.Write(out); err != nil {
				return
			}
			out, _ = appendMsg(out, id, OKResp{End: 42})
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	reg := metrics.New()
	c, err := DialWithOptions(l.Addr().String(), 1, DialOptions{CallTimeout: 2 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls = 3
	for i := 0; i < calls; i++ {
		resp, err := c.Call(SyncReq{})
		if err != nil {
			t.Fatalf("call %d: stray ErrResp delivered as reply: %v", i, err)
		}
		if resp.(OKResp).End != 42 {
			t.Fatalf("call %d: wrong response %v", i, resp)
		}
	}
	if got := reg.Counter("ipc.client.stale_responses").Value(); got != calls {
		t.Fatalf("stale_responses = %d, want %d", got, calls)
	}
}

// TestReconnectAfterConnLoss: when the server kills a connection, the next
// Call fails with a disconnect, and the one after that transparently
// redials (same Client, no new Dial) and succeeds.
func TestReconnectAfterConnLoss(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()

	c, err := DialWithOptions(srv.Addr().String(), 2, DialOptions{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(SyncReq{}); err != nil {
		t.Fatal(err)
	}

	// Sever every live server-side connection.
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()

	// The in-flight connection is dead: the next Call may fail (retryable)
	// or already land on a fresh connection; after at most a few calls the
	// client must be healthy again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Call(SyncReq{})
		if err == nil {
			if resp.(OKResp).End != 2 {
				t.Fatalf("wrong response after reconnect: %v", resp)
			}
			return
		}
		if !IsRetryable(err) {
			t.Fatalf("non-retryable error after conn loss: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
	}
}

// TestSeededFaultMatrix is the headline fault-injection property: under
// seeded drop/delay/corrupt/disconnect faults, (a) no Call blocks
// meaningfully past its deadline, (b) every successful response is the
// response to that exact request (payload echo must match), and (c) every
// failure is a typed, retryable transport error.
func TestSeededFaultMatrix(t *testing.T) {
	echo := func(vp int, req any) any {
		if r, ok := req.(H2DReq); ok {
			return D2HResp{Data: r.Data, End: float64(r.Off)}
		}
		return ErrResp{Msg: fmt.Sprintf("unexpected %T", req)}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echo)
	defer srv.Close()

	const timeout = 250 * time.Millisecond
	seed0 := baseSeed(t)
	for s := int64(0); s < 3; s++ {
		seed := seed0 + s
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faults := FaultConfig{
				Seed:       seed,
				Drop:       0.12,
				Delay:      0.3,
				MaxDelay:   2 * time.Millisecond,
				Corrupt:    0.08,
				Disconnect: 0.05,
			}
			c, err := DialWithOptions(srv.Addr().String(), 1, DialOptions{
				CallTimeout: timeout,
				BackoffBase: time.Millisecond,
				BackoffCap:  10 * time.Millisecond,
				Faults:      &faults,
			})
			if err != nil {
				// The very first hello can be eaten by a fault; that is a
				// legitimate, typed failure.
				if !IsRetryable(err) {
					t.Fatalf("dial failed non-retryably: %v", err)
				}
				t.Skipf("initial dial lost to injected fault: %v", err)
			}
			defer c.Close()

			okCalls := 0
			for i := 0; i < 60; i++ {
				payload := []byte{byte(i), byte(i >> 8), 0xA5}
				start := time.Now()
				resp, err := c.Call(H2DReq{Off: i, Data: payload})
				elapsed := time.Since(start)
				if elapsed > 2*timeout+200*time.Millisecond {
					t.Fatalf("call %d ran %v, far past its %v deadline", i, elapsed, timeout)
				}
				if err != nil {
					if !IsRetryable(err) {
						t.Fatalf("call %d: untyped transport error %T: %v", i, err, err)
					}
					continue
				}
				d := resp.(D2HResp)
				if d.End != float64(i) || len(d.Data) != len(payload) {
					t.Fatalf("call %d answered with another request's response: %+v", i, d)
				}
				for k := range payload {
					if d.Data[k] != payload[k] {
						t.Fatalf("call %d payload corrupted in delivered response", i)
					}
				}
				okCalls++
			}
			if okCalls == 0 {
				t.Fatal("no call survived the fault schedule; transport never recovered")
			}
			t.Logf("seed %d: %d/60 calls succeeded", seed, okCalls)
		})
	}
}

// TestServerSurvivesFaultyClients: after a storm of faulty clients, a clean
// client still gets correct service (no wedged accept/serve loops).
func TestServerSurvivesFaultyClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()

	for vp := 1; vp <= 4; vp++ {
		faults := FaultConfig{Seed: baseSeed(t) + int64(vp), Drop: 0.3, Corrupt: 0.3, Disconnect: 0.2}
		c, err := DialWithOptions(srv.Addr().String(), vp, DialOptions{
			CallTimeout: 50 * time.Millisecond,
			BackoffBase: time.Millisecond,
			Faults:      &faults,
		})
		if err != nil {
			continue
		}
		for i := 0; i < 10; i++ {
			c.Call(SyncReq{}) // outcome irrelevant; must not wedge the server
		}
		c.Close()
	}

	clean, err := Dial(srv.Addr().String(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	resp, err := clean.Call(SyncReq{})
	if err != nil {
		t.Fatalf("clean client after fault storm: %v", err)
	}
	if resp.(OKResp).End != 9 {
		t.Fatalf("clean client got %v", resp)
	}
}

// TestClientClosedCall: Call after Close fails fast with ErrClientClosed.
func TestClientClosedCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(SyncReq{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("want ErrClientClosed, got %v", err)
	}
}
