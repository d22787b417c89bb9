package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/metrics"
)

// remoteRun drives a fixed guest workload against a fresh ΣVP service over
// the named transport and returns the artifacts determinism is judged on:
// the final D2H bytes, the service metrics snapshot, and the engine trace.
// The service gets its own registry and the server/client transport counters
// are kept out of it, so snapshots are comparable across transports
// (transport traffic differs; simulated work must not).
func remoteRun(t *testing.T, transport string, workers int) (d2h, metricsJSON, traceJSON []byte) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = workers
	opts.Trace = true
	opts.Metrics = metrics.New()
	svc := core.NewService(opts)

	var client ipc.Client
	switch transport {
	case "pipe":
		svc.RegisterVP(1)
		defer svc.UnregisterVP(1)
		client = ipc.Pipe(1, svc.Handle)
	case "tcp":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ipc.ServeWithHooks(l, svc.Handle, svc.RegisterVP, svc.DisconnectVP)
		defer srv.Close()
		client, err = ipc.Dial(srv.Addr().String(), 1)
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	defer client.Close()

	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	ctx := cudart.NewContext(1, cudart.NewRemoteBackend(client))

	w := bench.MakeWorkload(1)
	launch := bench.NewLaunch(w)
	launch.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		ptr, err := ctx.Malloc(w.BufBytes[decl.Name])
		if err != nil {
			t.Fatalf("malloc %s: %v", decl.Name, err)
		}
		launch.Bindings[decl.Name] = ptr
	}
	// Two iterations on two streams: enough traffic to exercise dispatch
	// batching without introducing client-side nondeterminism.
	for it := 0; it < 2; it++ {
		for name, data := range w.Inputs {
			if err := ctx.MemcpyH2D(launch.Bindings[name], data); err != nil {
				t.Fatalf("iter %d h2d %s: %v", it, name, err)
			}
		}
		if err := ctx.LaunchKernelAsync(it%2, launch); err != nil {
			t.Fatalf("iter %d launch: %v", it, err)
		}
		if err := ctx.DeviceSynchronize(); err != nil {
			t.Fatalf("iter %d sync: %v", it, err)
		}
	}
	out := bench.Kernel.Bufs[len(bench.Kernel.Bufs)-1].Name
	d2h, err = ctx.MemcpyD2H(launch.Bindings[out], int(w.BufBytes[out]))
	if err != nil {
		t.Fatalf("d2h: %v", err)
	}
	// Snapshot while the VP is still registered on every transport: once
	// the client closes, the TCP server's disconnect hook deregisters the VP
	// on a goroutine of its own, and core.vps_active would read 1 or 0
	// depending on who wins.
	metricsJSON, err = svc.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err = json.Marshal(svc.Trace().Records())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return d2h, metricsJSON, traceJSON
}

// TestRemoteDeterminism is the ISSUE's acceptance property extended to
// remote mode: simulated results, metrics, and trace must be byte-identical
// across transports (in-process pipe vs TCP) and across worker-pool sizes.
func TestRemoteDeterminism(t *testing.T) {
	type run struct {
		transport string
		workers   int
	}
	runs := []run{
		{"pipe", 1},
		{"tcp", 1},
		{"tcp", 4},
		{"pipe", 4},
	}
	refD2H, refMetrics, refTrace := remoteRun(t, runs[0].transport, runs[0].workers)
	if len(refD2H) == 0 {
		t.Fatal("reference run produced no output bytes")
	}
	if len(refTrace) <= len("[]") {
		t.Fatal("reference run produced no trace records")
	}
	for _, r := range runs[1:] {
		name := fmt.Sprintf("%s/workers=%d", r.transport, r.workers)
		d2h, metricsJSON, traceJSON := remoteRun(t, r.transport, r.workers)
		if !bytes.Equal(d2h, refD2H) {
			t.Errorf("%s: D2H bytes differ from %s/workers=%d", name, runs[0].transport, runs[0].workers)
		}
		if !bytes.Equal(metricsJSON, refMetrics) {
			t.Errorf("%s: metrics snapshot differs:\n--- ref\n%s\n--- got\n%s", name, refMetrics, metricsJSON)
		}
		if !bytes.Equal(traceJSON, refTrace) {
			t.Errorf("%s: trace differs:\n--- ref\n%s\n--- got\n%s", name, refTrace, traceJSON)
		}
	}
}
