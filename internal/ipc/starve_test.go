package ipc

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
)

// starvedResponder is a raw server that answers every request
// except the one whose ID is `starve`. It is the adversarial liveness case
// for binClient.await: the connection keeps delivering frames (recvSeq keeps
// advancing), so any heuristic that extends a call's wait while the
// connection looks alive would park the starved caller forever.
func starvedResponder(t *testing.T, l net.Listener, starve uint64, saw chan<- struct{}) {
	t.Helper()
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
	signalled := false
	for {
		buf, err = readFrame(br, &hdr, buf)
		if err != nil {
			return
		}
		rd := wireReader{b: buf}
		rd.byte() // request type
		id := rd.uvarint()
		if rd.err != nil {
			t.Errorf("responder: bad frame: %v", rd.err)
			return
		}
		if id == starve {
			if !signalled {
				signalled = true
				close(saw)
			}
			continue // never answer this one
		}
		out, err = appendMsg(out[:0], id, OKResp{})
		if err != nil {
			t.Errorf("responder: encode: %v", err)
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TestBinClientStarvedCallHardDeadline pins the per-call deadline contract:
// a server that answers everything except one request must not be able to
// hang that one call. The starved call times out on schedule, the connection
// survives (no teardown, no redial), and later calls keep succeeding.
func TestBinClientStarvedCallHardDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	saw := make(chan struct{})
	// Request IDs increment from 1; the first call below takes 1, the
	// starved call takes 2.
	go starvedResponder(t, l, 2, saw)

	reg := metrics.New()
	const callTimeout = 300 * time.Millisecond
	c, err := DialWithOptions(l.Addr().String(), 0, DialOptions{
		CallTimeout: callTimeout, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(SyncReq{}); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Call(SyncReq{})
		done <- err
	}()
	select {
	case <-saw:
	case <-time.After(5 * time.Second):
		t.Fatal("responder never saw the starved request")
	}

	// Keep the connection demonstrably alive while the starved call waits:
	// every one of these calls is answered and advances recvSeq.
	kept := 0
	for {
		select {
		case err := <-done:
			elapsed := time.Since(start)
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("starved call err = %v, want TimeoutError", err)
			}
			if elapsed > 4*callTimeout {
				t.Fatalf("starved call took %v, deadline was %v — liveness heuristic extended the wait", elapsed, callTimeout)
			}
			if kept == 0 {
				t.Fatal("no keepalive traffic flowed during the starved wait")
			}
			// The healthy traffic means the timeout must not have torn the
			// connection down.
			if got := reg.Counter("ipc.client.reconnects").Value(); got != 0 {
				t.Fatalf("reconnects = %d, want 0", got)
			}
			if _, err := c.Call(SyncReq{}); err != nil {
				t.Fatalf("call after starved timeout: %v", err)
			}
			return
		default:
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("starved call never timed out: hard deadline not enforced")
		}
		if _, err := c.Call(SyncReq{}); err != nil {
			t.Fatalf("keepalive call: %v", err)
		}
		kept++
		time.Sleep(10 * time.Millisecond)
	}
}
