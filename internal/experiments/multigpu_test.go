package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
)

// TestMultiGPUScalingShape pins the acceptance property of the multi-GPU
// serving study: for the 16-VP mixed workload, four devices must beat one by
// at least 2.5x, makespan must shrink monotonically with fleet size, and
// every device must do real work (no straggler starves).
func TestMultiGPUScalingShape(t *testing.T) {
	r, err := MultiGPUScaling(16, 8, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i, p := range r.Points {
		if p.MakespanSec <= 0 {
			t.Fatalf("%d devices: non-positive makespan %v", p.Devices, p.MakespanSec)
		}
		if i > 0 && p.MakespanSec >= r.Points[i-1].MakespanSec {
			t.Errorf("makespan not monotone: %d devices %.6f >= %d devices %.6f",
				p.Devices, p.MakespanSec, r.Points[i-1].Devices, r.Points[i-1].MakespanSec)
		}
		if len(p.Utilization) != p.Devices {
			t.Fatalf("%d devices: %d utilization entries", p.Devices, len(p.Utilization))
		}
		for d, u := range p.Utilization {
			if u <= 0 || u > 1+1e-12 {
				t.Errorf("%d devices: device %d utilization %v out of (0,1]", p.Devices, d, u)
			}
		}
	}
	if got := r.Points[2].Speedup; got < 2.5 {
		t.Errorf("4-device speedup %.2fx < 2.5x acceptance threshold", got)
	}
	t.Logf("\n%s", r.String())
}

// TestMultiGPUScalingDeterministic re-runs one study point and compares the
// JSON artifact byte-for-byte: registration order fixes placement, and the
// lock-step dispatch loop fixes everything downstream.
func TestMultiGPUScalingDeterministic(t *testing.T) {
	a, err := MultiGPUScaling(8, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultiGPUScaling(8, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("repeat run diverged:\n--- a\n%s\n--- b\n%s", aj, bj)
	}
}

// TestMultiGPUScalingMatchesBENCH7 pins the study this package ships to the
// recorded BENCH_7 makespans, bit for bit (bench/ compares its own copy of
// the fleet, not this one): the
// fleet's VPStream numbering and AllocVP addresses must not move a
// simulated nanosecond.
func TestMultiGPUScalingMatchesBENCH7(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Study struct {
			VPs, Scale int
			Points     []struct {
				Devices  int
				Makespan float64 `json:"makespan_sec"`
			}
		}
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var devCounts []int
	for _, p := range golden.Study.Points {
		devCounts = append(devCounts, p.Devices)
	}
	if len(devCounts) != 3 {
		t.Fatalf("BENCH_7.json lists %d points, want 3", len(devCounts))
	}
	r, err := MultiGPUScaling(golden.Study.VPs, golden.Study.Scale, devCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range r.Points {
		if want := golden.Study.Points[i].Makespan; p.MakespanSec != want {
			t.Errorf("%d devices: makespan %v, BENCH_7 records %v", p.Devices, p.MakespanSec, want)
		}
	}
}

// TestFarmFleetClosesOnProvisionError forces an allocation failure while the
// fleet provisions (an arena too small for one buffer) and checks no
// goroutine outlives the error: multiGPURun once returned without closing
// the farm, leaving an executor goroutine per device, and a farm now holds
// none while it has no work.
func TestFarmFleetClosesOnProvisionError(t *testing.T) {
	benches, _, err := mixedBenches()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	opts := core.DefaultOptions()
	opts.MemBytes = 1 << 10
	if _, err := newFarmFleet(opts, 4, benches, 1, 8); err == nil {
		t.Fatal("fleet provisioned into a 1 KiB arena")
	}
	// An exiting goroutine stays counted for an instant after its last batch.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// multiRemoteRun serves a two-device MultiService over TCP and drives four
// VPs through it sequentially, returning every artifact multi-device
// determinism is judged on: the VPs' device assignments, their concatenated
// D2H bytes, the aggregated metrics snapshot, and the merged trace.
//
// VPs run one after another (each fully closed before the next dials) because
// the property under test is the serving stack, not client scheduling: with a
// fixed registration order the placement, and hence every downstream byte,
// must not depend on worker-pool size or GOMAXPROCS.
func multiRemoteRun(t *testing.T, workers int) (assign string, d2h, metricsJSON, traceJSON []byte) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Trace = true
	ms, err := core.NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ms.Devices(); i++ {
		ms.Device(i).GPU.Workers = workers
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, ms)
	defer srv.Close()

	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	w := bench.MakeWorkload(1)

	var devs []int
	var out bytes.Buffer
	for vpID := 1; vpID <= 4; vpID++ {
		client, err := ipc.Dial(srv.Addr().String(), vpID)
		if err != nil {
			t.Fatal(err)
		}
		ctx := cudart.NewContext(vpID, cudart.NewRemoteBackend(client))
		launch := bench.NewLaunch(w)
		launch.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			ptr, err := ctx.Malloc(w.BufBytes[decl.Name])
			if err != nil {
				t.Fatalf("vp %d malloc %s: %v", vpID, decl.Name, err)
			}
			launch.Bindings[decl.Name] = ptr
		}
		for name, data := range w.Inputs {
			if err := ctx.MemcpyH2D(launch.Bindings[name], data); err != nil {
				t.Fatalf("vp %d h2d %s: %v", vpID, name, err)
			}
		}
		if err := ctx.LaunchKernelAsync(0, launch); err != nil {
			t.Fatalf("vp %d launch: %v", vpID, err)
		}
		if err := ctx.DeviceSynchronize(); err != nil {
			t.Fatalf("vp %d sync: %v", vpID, err)
		}
		outBuf := bench.Kernel.Bufs[len(bench.Kernel.Bufs)-1].Name
		res, err := ctx.MemcpyD2H(launch.Bindings[outBuf], int(w.BufBytes[outBuf]))
		if err != nil {
			t.Fatalf("vp %d d2h: %v", vpID, err)
		}
		out.Write(res)
		if err := ctx.Close(); err != nil {
			t.Fatalf("vp %d close: %v", vpID, err)
		}
		if err := client.Close(); err != nil {
			t.Fatalf("vp %d client close: %v", vpID, err)
		}
		dev, ok := ms.Assignment(vpID)
		if !ok {
			t.Fatalf("vp %d never assigned", vpID)
		}
		devs = append(devs, dev)
		// The server tears the VP down from the connection goroutine; wait
		// for it so the next VP registers against a settled service and the
		// teardown events land in a fixed order.
		deadline := time.Now().Add(5 * time.Second)
		for ms.ActiveVPs() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("vp %d still registered after close", vpID)
			}
			time.Sleep(time.Millisecond)
		}
	}

	metricsJSON, err = ms.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	merged := ms.MergedTrace()
	if merged == nil {
		t.Fatal("no merged trace with tracing on")
	}
	traceJSON, err = json.Marshal(merged.Records)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(devs), out.Bytes(), metricsJSON, traceJSON
}

// TestMultiDeviceRemoteDeterminism is the multi-GPU half of the determinism
// contract: with a fixed VP registration order, the placement decisions, D2H
// payloads, aggregated metrics snapshot, and merged trace are byte-identical
// across worker-pool sizes and GOMAXPROCS 1 vs 4 (a pipelined farm on a
// single-core host must still simulate the same bytes, just without the
// wall-clock overlap).
func TestMultiDeviceRemoteDeterminism(t *testing.T) {
	type run struct {
		workers  int
		maxprocs int // 0 = leave the test binary's setting alone
	}
	var runs []run
	for _, maxprocs := range []int{0, 1, 4} {
		for _, workers := range []int{1, 4} {
			runs = append(runs, run{workers, maxprocs})
		}
	}
	do := func(r run) (string, []byte, []byte, []byte) {
		if r.maxprocs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.maxprocs))
		}
		return multiRemoteRun(t, r.workers)
	}
	refAssign, refD2H, refMetrics, refTrace := do(runs[0])
	if refAssign != "[0 1 0 1]" {
		t.Fatalf("round-robin placement of VPs 1..4 = %s, want [0 1 0 1]", refAssign)
	}
	if len(refD2H) == 0 {
		t.Fatal("reference run produced no output bytes")
	}
	if len(refTrace) <= len("[]") {
		t.Fatal("reference run produced no trace records")
	}
	for _, r := range runs[1:] {
		name := fmt.Sprintf("workers=%d/maxprocs=%d", r.workers, r.maxprocs)
		assign, d2h, metricsJSON, traceJSON := do(r)
		if assign != refAssign {
			t.Errorf("%s: placement %s differs from reference %s", name, assign, refAssign)
		}
		if !bytes.Equal(d2h, refD2H) {
			t.Errorf("%s: D2H bytes differ from reference", name)
		}
		if !bytes.Equal(metricsJSON, refMetrics) {
			t.Errorf("%s: metrics snapshot differs:\n--- ref\n%s\n--- got\n%s", name, refMetrics, metricsJSON)
		}
		if !bytes.Equal(traceJSON, refTrace) {
			t.Errorf("%s: merged trace differs:\n--- ref\n%s\n--- got\n%s", name, refTrace, traceJSON)
		}
	}
}
