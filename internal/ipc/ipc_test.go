package ipc

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/devmem"
	"repro/internal/kpl"
)

func echoHandler(vp int, req any) any {
	switch r := req.(type) {
	case MallocReq:
		return MallocResp{Ptr: devmem.Ptr(r.Size)}
	case H2DReq:
		return OKResp{End: float64(len(r.Data))}
	case D2HReq:
		return D2HResp{Data: make([]byte, r.N), End: 1}
	case SyncReq:
		return OKResp{End: float64(vp)}
	case FreeReq:
		return ErrResp{Msg: "free denied"}
	}
	return ErrResp{Msg: fmt.Sprintf("unknown %T", req)}
}

func exerciseClient(t *testing.T, c Client, vp int) {
	t.Helper()
	resp, err := c.Call(MallocReq{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(MallocResp).Ptr != 128 {
		t.Fatalf("malloc resp %v", resp)
	}
	resp, err = c.Call(H2DReq{Data: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(OKResp).End != 3 {
		t.Fatalf("h2d resp %v", resp)
	}
	resp, err = c.Call(D2HReq{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.(D2HResp).Data) != 7 {
		t.Fatalf("d2h resp %v", resp)
	}
	resp, err = c.Call(SyncReq{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(OKResp).End != float64(vp) {
		t.Fatalf("sync resp %v for vp %d", resp, vp)
	}
	if _, err = c.Call(FreeReq{}); err == nil {
		t.Fatal("ErrResp should surface as error")
	}
}

// serveEcho serves echoHandler on a loopback listener and dials vp to it.
func serveEcho(t *testing.T, vp int) Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr().String(), vp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTCPClientEveryKind: every reply kind of the boxed Call comes back over
// TCP as the handler gave it, and an ErrResp as an error.
func TestTCPClientEveryKind(t *testing.T) {
	exerciseClient(t, serveEcho(t, 3), 3)
}

func TestTCPTransport(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()

	var wg sync.WaitGroup
	for vp := 1; vp <= 4; vp++ {
		wg.Add(1)
		go func(vp int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String(), vp)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				resp, err := c.Call(SyncReq{})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.(OKResp).End != float64(vp) {
					t.Errorf("vp %d got %v", vp, resp)
					return
				}
			}
		}(vp)
	}
	wg.Wait()
}

func TestTCPServerClose(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	// A short deadline: if the client notices the close before the second
	// Call, that Call redials the closed port until its deadline.
	c, err := DialWithOptions(srv.Addr().String(), 1, DialOptions{CallTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(SyncReq{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(SyncReq{}); !IsRetryable(err) {
		t.Fatalf("call after server close: want a retryable transport error, got %v", err)
	}
}

// TestTCPClientErrorReplies: the client turns an ErrResp into an error and an
// OverloadResp into an *OverloadError carrying the shed's hint, on the boxed
// and the typed calls alike, and passes every other reply through.
func TestTCPClientErrorReplies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shed := OverloadResp{Msg: "full", Backoff: 3 * time.Millisecond, Retryable: true}
	srv := Serve(l, func(vp int, req any) any {
		switch req.(type) {
		case FreeReq:
			return ErrResp{Msg: "boom"}
		case H2DReq:
			return shed
		}
		return OKResp{End: 5}
	})
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(FreeReq{}); err == nil || err.Error() != "ipc: boom" {
		t.Fatalf("ErrResp came back as %v, want the error \"ipc: boom\"", err)
	}
	for name, err := range map[string]error{
		"Call":    func() error { _, err := c.Call(H2DReq{Data: []byte{1}}); return err }(),
		"CallH2D": func() error { _, err := c.CallH2D(H2DReq{Data: []byte{1}}); return err }(),
	} {
		oe, ok := AsOverload(err)
		if !ok || oe.Msg != shed.Msg || oe.Backoff != shed.Backoff || oe.Retryable != shed.Retryable {
			t.Fatalf("%s: OverloadResp came back as %v, want %+v", name, err, shed)
		}
	}
	resp, err := c.Call(SyncReq{})
	if err != nil || resp.(OKResp).End != 5 {
		t.Fatalf("OKResp came back as %v, %v", resp, err)
	}
}

// TestWireRoundTripProperty: request and response payloads survive the wire
// intact over the TCP transport.
func TestWireRoundTripProperty(t *testing.T) {
	echo := func(vp int, req any) any {
		switch r := req.(type) {
		case H2DReq:
			return D2HResp{Data: r.Data, End: float64(r.Off)}
		case LaunchReq:
			if r.Params["x"].I != 42 || r.Bindings["buf"] != devmem.Ptr(7) {
				return ErrResp{Msg: "payload corrupted"}
			}
			return OKResp{End: float64(r.Grid * r.Block)}
		}
		return ErrResp{Msg: "unexpected"}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echo)
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := func(data []byte, off uint16) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		resp, err := c.Call(H2DReq{Dst: 1, Off: int(off), Data: data})
		if err != nil {
			return false
		}
		d := resp.(D2HResp)
		if d.End != float64(off) || len(d.Data) != len(data) {
			return false
		}
		for i := range data {
			if d.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}

	// Structured launch payloads survive too.
	resp, err := c.Call(LaunchReq{
		Kernel: "k", Grid: 3, Block: 7,
		Params:   map[string]kpl.Value{"x": kpl.IntVal(42)},
		Bindings: map[string]devmem.Ptr{"buf": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(OKResp).End != 21 {
		t.Fatalf("launch round trip: %v", resp)
	}
}

func TestServeWithHooks(t *testing.T) {
	var mu sync.Mutex
	events := []string{}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWithHooks(l, echoHandler,
		func(vp int) { mu.Lock(); events = append(events, fmt.Sprintf("+%d", vp)); mu.Unlock() },
		func(vp int) { mu.Lock(); events = append(events, fmt.Sprintf("-%d", vp)); mu.Unlock() })
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(SyncReq{}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "+5" || events[1] != "-5" {
		t.Fatalf("events = %v", events)
	}
}
