package main

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/metrics"
)

// testDaemon builds what main builds for `-gpus spec`: the farm, and — when
// serve is set — its listener on loopback with the transport registry
// attached.
func testDaemon(t *testing.T, opts core.Options, spec string, serve bool) (*core.MultiService, *ipc.Server, *metrics.Registry) {
	t.Helper()
	gpus, err := parseGPUs(spec, arch.Quadro4000())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.NewMultiServicePlaced(opts, gpus, core.PlaceRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ms.Close)
	transport := metrics.New()
	if !serve {
		return ms, nil, transport
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, ms)
	srv.SetMetrics(transport)
	t.Cleanup(func() { srv.Close() })
	return ms, srv, transport
}

// TestGracefulShutdown drives a real TCP round-trip through the default
// daemon shape (a one-device farm), then shuts the daemon down and checks the
// final metrics snapshot lands on disk and reflects the drained traffic.
func TestGracefulShutdown(t *testing.T) {
	ms, srv, transport := testDaemon(t, core.DefaultOptions(), "1", true)

	c, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(ipc.MallocReq{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	ptr := resp.(ipc.MallocResp).Ptr
	if _, err := c.Call(ipc.H2DReq{Dst: ptr, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := shutdown(srv, nil, ms, transport, 2*time.Second, "", out); err != nil {
		t.Fatal(err)
	}

	// The listener is gone: a fresh dial must fail.
	if _, err := ipc.Dial(srv.Addr().String(), 2); err == nil {
		t.Fatal("dial after shutdown should fail")
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("final snapshot not JSON: %v", err)
	}
	if snap.CounterValue("core.jobs_submitted") == 0 {
		t.Fatal("final snapshot shows no submitted jobs")
	}
	if agg, g0 := snap.CounterValue("core.jobs_submitted"), snap.CounterValue("gpu0.core.jobs_submitted"); agg != g0 {
		t.Fatalf("one-device farm: aggregate %d != gpu0 %d", agg, g0)
	}
	if snap.CounterValue("ipc.server.requests") == 0 {
		t.Fatal("final snapshot shows no served requests")
	}
}

// TestObservabilityEndpoints drives the default one-device farm through the
// pipe transport and checks /metrics and /trace return well-formed JSON
// reflecting the traffic, in the farm's namespacing.
func TestObservabilityEndpoints(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Trace = true
	ms, _, transport := testDaemon(t, opts, "1", false)
	mux := buildMux(ms, transport)

	ms.RegisterVP(1)
	c := ipc.Pipe(1, ms.Handle)
	resp, err := c.Call(ipc.MallocReq{Size: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	ptr := resp.(ipc.MallocResp).Ptr
	if _, err := c.Call(ipc.H2DReq{Dst: ptr, Data: make([]byte, 1<<12)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ipc.SyncReq{}); err != nil {
		t.Fatal(err)
	}
	ms.UnregisterVP(1)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.CounterValue("core.jobs_submitted") == 0 {
		t.Fatal("/metrics shows no submitted jobs after traffic")
	}
	if len(snap.Events) == 0 {
		t.Fatal("/metrics shows no job events after traffic")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace status %d", rec.Code)
	}
	var view traceView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(view.Records) == 0 {
		t.Fatal("/trace shows no records after an H2D copy")
	}
	for _, r := range view.Records {
		if !strings.HasPrefix(r.Engine, "gpu0/") {
			t.Fatalf("trace record engine %q not labeled gpu0/", r.Engine)
		}
	}
	for eng, u := range view.Utilization {
		if u < 0 || u > 1+1e-12 {
			t.Fatalf("utilization[%s] = %v out of range", eng, u)
		}
	}
}

// TestParseGPUs covers the -gpus flag vocabulary.
func TestParseGPUs(t *testing.T) {
	def := arch.Quadro4000()
	gpus, err := parseGPUs("3", def)
	if err != nil || len(gpus) != 3 || gpus[2].Name != def.Name {
		t.Fatalf("parseGPUs(3) = %v, %v", gpus, err)
	}
	gpus, err = parseGPUs("", def)
	if err != nil || len(gpus) != 1 || gpus[0].Name != def.Name {
		t.Fatalf("parseGPUs(\"\") = %v, %v, want the one -arch device", gpus, err)
	}
	gpus, err = parseGPUs("quadro, k520", def)
	if err != nil || len(gpus) != 2 || gpus[0].Name == gpus[1].Name {
		t.Fatalf("parseGPUs(list) = %v, %v", gpus, err)
	}
	if _, err := parseGPUs("0", def); err == nil {
		t.Fatal("accepted zero devices")
	}
	if _, err := parseGPUs("quadro,bogus", def); err == nil {
		t.Fatal("accepted unknown preset")
	}
}

// TestMultiGPUDaemon drives the -gpus serving shape end to end: two VPs
// connect over TCP to a two-device MultiService behind ipc.ServeEndpoint,
// and the observability endpoints expose the per-device namespaced metrics
// and the merged trace.
func TestMultiGPUDaemon(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Trace = true
	ms, srv, transport := testDaemon(t, opts, "2", true)
	mux := buildMux(ms, transport)

	for vp := 1; vp <= 2; vp++ {
		c, err := ipc.Dial(srv.Addr().String(), vp)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(ipc.MallocReq{Size: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		ptr := resp.(ipc.MallocResp).Ptr
		if _, err := c.Call(ipc.H2DReq{Dst: ptr, Data: make([]byte, 1<<12)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(ipc.SyncReq{}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	g0 := snap.CounterValue("gpu0.core.jobs_submitted")
	g1 := snap.CounterValue("gpu1.core.jobs_submitted")
	if g0 == 0 || g1 == 0 {
		t.Fatalf("round-robin should land one VP per device: gpu0=%d gpu1=%d", g0, g1)
	}
	if agg := snap.CounterValue("core.jobs_submitted"); agg != g0+g1 {
		t.Fatalf("aggregate %d != gpu0 %d + gpu1 %d", agg, g0, g1)
	}
	if snap.CounterValue("ipc.server.requests") == 0 {
		t.Fatal("transport counters missing from merged snapshot")
	}
	if snap.CounterValue("core.exec.batches") == 0 {
		t.Fatal("executor-health counters missing from merged snapshot")
	}
	if g0, g1 := snap.CounterValue("gpu0.core.exec.batches"), snap.CounterValue("gpu1.core.exec.batches"); g0 == 0 || g1 == 0 {
		t.Fatalf("per-device executor counters missing: gpu0=%d gpu1=%d", g0, g1)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/trace status %d", rec.Code)
	}
	var view traceView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(view.Records) == 0 {
		t.Fatal("/trace shows no records after traffic")
	}
	for _, r := range view.Records {
		if !strings.HasPrefix(r.Engine, "gpu0/") && !strings.HasPrefix(r.Engine, "gpu1/") {
			t.Fatalf("merged trace record engine %q not device-namespaced", r.Engine)
		}
	}

	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := shutdown(srv, nil, ms, transport, 2*time.Second, "", out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonAdmissionFlags drives the serving shape the admission flags
// (-max-queued, -max-queued-bytes, -fair) configure: a daemon with a byte
// quota sheds an oversized copy with a typed, non-retryable overload, admits
// traffic within quota, and exposes the core.admission.* counters through the
// same merged snapshot /metrics serves.
func TestDaemonAdmissionFlags(t *testing.T) {
	opts := core.DefaultOptions()
	// What `sigmavpd -max-queued 4 -max-queued-bytes 16 -fair 2` would set.
	opts.Admission = core.AdmissionOptions{MaxQueuedJobs: 4, MaxQueuedBytes: 16}
	opts.FairShare = 2
	ms, srv, transport := testDaemon(t, opts, "1", true)
	mux := buildMux(ms, transport)

	c, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(ipc.MallocReq{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	ptr := resp.(ipc.MallocResp).Ptr

	// A copy larger than the whole byte quota can never be admitted: the
	// daemon must shed it with a typed, non-retryable overload.
	_, err = c.Call(ipc.H2DReq{Dst: ptr, Data: make([]byte, 64)})
	oe, ok := ipc.AsOverload(err)
	if !ok {
		t.Fatalf("oversized H2D err = %v, want overload", err)
	}
	if oe.Retryable {
		t.Fatal("payload larger than the quota must be non-retryable")
	}
	// Within-quota traffic still flows on the same connection.
	if _, err := c.Call(ipc.H2DReq{Dst: ptr, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatalf("within-quota H2D after shed: %v", err)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.CounterValue("core.admission.shed") == 0 {
		t.Fatal("merged snapshot missing admission shed counter")
	}
	if snap.CounterValue("core.admission.shed.payload") == 0 {
		t.Fatal("merged snapshot missing per-reason shed counter")
	}
	if snap.CounterValue("core.admission.admitted") == 0 {
		t.Fatal("merged snapshot missing admission admitted counter")
	}

	// Hang up first: an open connection would hold shutdown for the grace.
	c.Close()
	if err := shutdown(srv, nil, ms, transport, 2*time.Second, "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDisabled checks /trace 404s when the recorder is off.
func TestTraceDisabled(t *testing.T) {
	ms, _, transport := testDaemon(t, core.DefaultOptions(), "1", false)
	mux := buildMux(ms, transport)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("/trace with tracing off: status %d, want 404", rec.Code)
	}
}
