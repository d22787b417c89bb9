package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
)

// remoteRun drives a fixed guest workload against a fresh one-device ΣVP farm
// over the named route — the farm's in-process back end or TCP — and returns
// the artifacts determinism is judged on: the final D2H bytes, the metrics
// snapshot, and the engine trace. The farm gets its own registry and the
// server/client transport counters are kept out of it, so snapshots are
// comparable across routes (transport traffic differs; simulated work must
// not).
func remoteRun(t *testing.T, transport string, workers int) (d2h, metricsJSON, traceJSON []byte) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Trace = true
	farm, err := core.NewMultiService(opts, []arch.GPU{opts.Arch})
	if err != nil {
		t.Fatal(err)
	}
	farm.Device(0).GPU.Workers = workers

	var back cudart.Backend
	switch transport {
	case "in-process":
		farm.RegisterVP(1)
		defer farm.UnregisterVP(1)
		back = farm.Backend(1)
	case "tcp":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ipc.ServeEndpoint(l, farm)
		defer srv.Close()
		client, err := ipc.Dial(srv.Addr().String(), 1)
		if err != nil {
			t.Fatal(err)
		}
		back = cudart.NewRemoteBackend(client)
	default:
		t.Fatalf("unknown transport %q", transport)
	}

	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	ctx := cudart.NewContext(1, back)

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
	metricsJSON, err = farm.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err = json.Marshal(farm.MergedTrace().Records)
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
// across routes (the farm's in-process back end vs TCP) and across
// worker-pool sizes.
func TestRemoteDeterminism(t *testing.T) {
	type run struct {
		transport string
		workers   int
	}
	runs := []run{
		{"in-process", 1},
		{"tcp", 1},
		{"tcp", 4},
		{"in-process", 4},
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
