package ipc

import (
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestTransportMetrics exercises both sides of the TCP transport with
// registries attached and checks the counters line up with the traffic.
func TestTransportMetrics(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	srvReg := metrics.New()
	srv.SetMetrics(srvReg)
	defer srv.Close()

	cliReg := metrics.New()
	c, err := DialWithOptions(srv.Addr().String(), 1, DialOptions{Metrics: cliReg})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := c.Call(SyncReq{}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close() // drain serveConn goroutines before reading server counters

	if got := cliReg.Counter("ipc.client.calls").Value(); got != calls {
		t.Fatalf("client calls = %d, want %d", got, calls)
	}
	if got := cliReg.Counter("ipc.client.errors").Value(); got != 0 {
		t.Fatalf("client errors = %d, want 0", got)
	}
	if got := srvReg.Counter("ipc.server.connections").Value(); got != 1 {
		t.Fatalf("server connections = %d, want 1", got)
	}
	if got := srvReg.Counter("ipc.server.requests").Value(); got != calls {
		t.Fatalf("server requests = %d, want %d", got, calls)
	}
	// The client hanging up mid-stream registers as one decode error.
	if got := srvReg.Counter("ipc.server.decode_errors").Value(); got != 1 {
		t.Fatalf("server decode errors = %d, want 1", got)
	}
}

// TestFaultInjectionMetrics checks that injected faults are counted and that
// the deterministic schedule is unchanged by attaching a registry.
func TestFaultInjectionMetrics(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()

	reg := metrics.New()
	// The calls are serial, so a dropped request is a wait during which no
	// frame arrives: the call times out, the client fails the connection
	// (await's liveness rule), and the next call reconnects.
	c, err := DialWithOptions(srv.Addr().String(), 2, DialOptions{
		CallTimeout: 100 * time.Millisecond,
		Faults:      &FaultConfig{Seed: 7, Drop: 0.5},
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var errs int
	for i := 0; i < 20; i++ {
		if _, err := c.Call(SyncReq{}); err != nil {
			errs++
		}
	}
	drops := reg.Counter("ipc.faults.drop").Value()
	if drops == 0 {
		t.Fatal("drop=0.5 over 20 calls injected no drops")
	}
	if got := reg.Counter("ipc.client.timeouts").Value(); got == 0 {
		t.Fatalf("dropped frames should surface as timeouts (errs=%d, drops=%d)", errs, drops)
	}
	if got := reg.Counter("ipc.client.reconnects").Value(); got == 0 {
		t.Fatal("a silent connection is dropped on timeout; the next call should reconnect")
	}
}
