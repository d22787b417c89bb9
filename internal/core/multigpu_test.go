package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/ipc"
	"repro/internal/sched"
	"repro/internal/vp"
)

func TestMultiServiceRequiresGPUs(t *testing.T) {
	if _, err := NewMultiService(DefaultOptions(), nil); err == nil {
		t.Fatal("accepted empty GPU list")
	}
}

func TestMultiServiceAssignsRoundRobin(t *testing.T) {
	m, err := NewMultiService(DefaultOptions(), arch.HostGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if m.Devices() != 2 {
		t.Fatalf("devices = %d", m.Devices())
	}
	b0 := m.Backend(0)
	b1 := m.Backend(1)
	b2 := m.Backend(2)
	if b0.Service() == b1.Service() {
		t.Error("VPs 0 and 1 should land on different devices")
	}
	if b0.Service() != b2.Service() {
		t.Error("VP 2 should wrap around to the first device")
	}
	// Assignment is sticky.
	if m.Backend(0).Service() != b0.Service() {
		t.Error("assignment not sticky")
	}
}

// TestMultiGPUFleet runs 4 VPs over two host GPUs end to end and verifies
// both functional results and that the two-device makespan beats one device.
func TestMultiGPUFleet(t *testing.T) {
	run := func(gpus []arch.GPU) float64 {
		m, err := NewMultiService(DefaultOptions(), gpus)
		if err != nil {
			t.Fatal(err)
		}
		fleet := vp.NewFleet(4, arch.ARMVersatile(), func(id int) *cudart.Context {
			m.RegisterVP(id)
			return cudart.NewContext(id, m.Backend(id))
		})
		app := vecAddApp(1<<16, 1)
		err = fleet.Run(func(v *vp.VP) error {
			defer m.UnregisterVP(v.ID)
			return app(v)
		})
		m.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return m.Sync()
	}
	q := arch.Quadro4000()
	one := run([]arch.GPU{q})
	two := run([]arch.GPU{q, q})
	if two >= one {
		t.Fatalf("two devices (%.6f) should beat one (%.6f)", two, one)
	}
	t.Logf("1 GPU %.6fs, 2 GPUs %.6fs (%.2fx)", one, two, one/two)
}

func TestMultiServiceTraces(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	m, err := NewMultiService(opts, arch.HostGPUs())
	if err != nil {
		t.Fatal(err)
	}
	traces := m.Traces()
	if len(traces) != 2 || traces[0] == nil || traces[1] == nil {
		t.Fatal("traces missing")
	}
	// Unregistering an unknown VP is a no-op.
	m.UnregisterVP(99)
}

// TestMultiServiceMetricsNamespaced pins the shared-registry collision fix:
// with two devices doing identical work, per-device counters must stay
// separate (gpu0./gpu1. namespaces) and the unprefixed aggregate must equal
// their sum.
func TestMultiServiceMetricsNamespaced(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	fleet := vp.NewFleet(2, arch.ARMVersatile(), func(id int) *cudart.Context {
		m.RegisterVP(id)
		return cudart.NewContext(id, m.Backend(id))
	})
	if err := fleet.Run(func(v *vp.VP) error {
		defer m.UnregisterVP(v.ID)
		return vecAddApp(1<<12, 2)(v)
	}); err != nil {
		t.Fatal(err)
	}
	m.Flush()

	// Round-robin put one VP on each device: both device registries saw work.
	for i := 0; i < 2; i++ {
		if got := m.Device(i).Metrics().Counter("core.jobs_submitted").Value(); got == 0 {
			t.Errorf("device %d saw no jobs", i)
		}
	}
	snap := m.Snapshot()
	g0 := snap.CounterValue("gpu0.core.jobs_submitted")
	g1 := snap.CounterValue("gpu1.core.jobs_submitted")
	agg := snap.CounterValue("core.jobs_submitted")
	if g0 == 0 || g1 == 0 {
		t.Fatalf("namespaced counters missing: gpu0=%d gpu1=%d", g0, g1)
	}
	if agg != g0+g1 {
		t.Fatalf("aggregate %d != gpu0 %d + gpu1 %d", agg, g0, g1)
	}
	// The merged timeline holds each device's job records once, under its
	// own "gpu<i>/" rows.
	per := map[string]int{}
	for _, r := range m.MergedTrace().Records {
		per[r.Engine[:strings.IndexByte(r.Engine, '/')]]++
	}
	for i, want := range []int{len(m.Device(0).Trace().Timeline().Records), len(m.Device(1).Trace().Timeline().Records)} {
		if got := per[fmt.Sprintf("gpu%d", i)]; want == 0 || got != want {
			t.Fatalf("merged timeline has %d gpu%d records, the device %d", got, i, want)
		}
	}
}

// TestPlacementLeastLoaded checks busy-time scoring: after device 0 accrues
// work, a new VP lands on the idle device 1.
func TestPlacementLeastLoaded(t *testing.T) {
	q := arch.Quadro4000()
	m, err := NewMultiServicePlaced(DefaultOptions(), []arch.GPU{q, q}, PlaceLeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	// Load device 0 with a copy job through the deterministic dispatch path.
	p, err := m.Device(0).GPU.Mem.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	m.DispatchBatch(0, []*sched.Job{sched.NewH2D(0, 0, p, 0, make([]byte, 1<<20))})
	m.Device(0).Drain() // DispatchBatch only enqueues; the drain runs it
	if m.Device(0).BusySeconds() <= 0 {
		t.Fatal("device 0 accrued no busy time")
	}
	if _, ok := m.Assignment(7); ok {
		t.Fatal("vp assigned before first sight")
	}
	m.RegisterVP(7)
	if d, ok := m.Assignment(7); !ok || d != 1 {
		t.Fatalf("vp placed on device %d (ok=%v), want idle device 1", d, ok)
	}
	// Devices equal in queue and busy time: the tie falls to VP count, so on
	// an idle farm the second VP goes to the device the first did not take.
	idle, err := NewMultiServicePlaced(DefaultOptions(), []arch.GPU{q, q}, PlaceLeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	idle.RegisterVP(7)
	idle.RegisterVP(8)
	if d, _ := idle.Assignment(8); d != 1 {
		t.Fatalf("tie-break vp placed on device %d, want 1", d)
	}
}

// TestPlacementMemAware checks headroom scoring: the device with more free
// devmem wins, regardless of index order.
func TestPlacementMemAware(t *testing.T) {
	q := arch.Quadro4000()
	opts := DefaultOptions()
	opts.MemBytes = 1 << 24
	m, err := NewMultiServicePlaced(opts, []arch.GPU{q, q, q}, PlaceMemAware)
	if err != nil {
		t.Fatal(err)
	}
	// Crowd devices 0 and 2.
	if _, err := m.Device(0).GPU.Mem.Alloc(1 << 22); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Device(2).GPU.Mem.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	m.RegisterVP(1)
	if d, _ := m.Assignment(1); d != 1 {
		t.Fatalf("vp placed on device %d, want roomiest device 1", d)
	}
	// Equal headroom ties break toward fewer assigned VPs, then index.
	m2, err := NewMultiServicePlaced(opts, []arch.GPU{q, q}, PlaceMemAware)
	if err != nil {
		t.Fatal(err)
	}
	m2.RegisterVP(0)
	m2.RegisterVP(1)
	d0, _ := m2.Assignment(0)
	d1, _ := m2.Assignment(1)
	if d0 != 0 || d1 != 1 {
		t.Fatalf("idle-fleet mem-aware placement %d,%d; want 0,1", d0, d1)
	}
}

// TestParsePlacement covers the flag vocabulary.
func TestParsePlacement(t *testing.T) {
	cases := map[string]PlacementPolicy{
		"": PlaceRoundRobin, "rr": PlaceRoundRobin, "round-robin": PlaceRoundRobin,
		"least-loaded": PlaceLeastLoaded, "load": PlaceLeastLoaded,
		"mem-aware": PlaceMemAware, "mem": PlaceMemAware,
	}
	for in, want := range cases {
		got, err := ParsePlacement(in)
		if err != nil || got != want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Error("bogus placement accepted")
	}
	if PlaceRoundRobin.String() != "round-robin" || PlaceLeastLoaded.String() != "least-loaded" || PlaceMemAware.String() != "mem-aware" {
		t.Error("policy String() vocabulary drifted")
	}
}

// TestMergedTrace checks the multi-device trace view: per-device engine rows
// appear under gpu<i>/ prefixes and utilization stays in range.
func TestMergedTrace(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 2; dev++ {
		p, err := m.Device(dev).GPU.Mem.Alloc(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		m.DispatchBatch(dev, []*sched.Job{sched.NewH2D(dev, dev, p, 0, make([]byte, 1<<16))})
	}
	m.Drain() // the trace is read as it stands
	merged := m.MergedTrace()
	if merged == nil {
		t.Fatal("merged trace nil with tracing on")
	}
	seen := map[string]bool{}
	for _, r := range merged.Records {
		seen[r.Engine] = true
		if !strings.HasPrefix(r.Engine, "gpu0/") && !strings.HasPrefix(r.Engine, "gpu1/") {
			t.Fatalf("record engine %q not namespaced", r.Engine)
		}
	}
	if !seen["gpu0/h2d"] || !seen["gpu1/h2d"] {
		t.Fatalf("merged trace missing per-device rows: %v", seen)
	}
	for eng, u := range merged.Utilization() {
		if u < 0 || u > 1+1e-12 {
			t.Fatalf("utilization[%s] = %v out of range", eng, u)
		}
	}
	// Tracing off ⇒ no merged view.
	m2, err := NewMultiService(DefaultOptions(), arch.HostGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if m2.MergedTrace() != nil {
		t.Fatal("merged trace present with tracing off")
	}
}

// TestPlacementRefusesOverQuotaDevice: a device at its admission cap is
// skipped by placement until it drains, for every policy's candidate set.
func TestPlacementRefusesOverQuotaDevice(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{DeviceMaxQueuedJobs: 1}
	m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	// Fill device 0 to its cap.
	if oe := m.adm.admit(0, 99, 0); oe != nil {
		t.Fatalf("seed admit: %v", oe)
	}
	if !m.adm.overQuota(0) {
		t.Fatal("device 0 should be over quota")
	}
	// Round-robin would offer device 0 first; the refusal routes both new
	// VPs to device 1.
	m.RegisterVP(10)
	m.RegisterVP(11)
	for _, vp := range []int{10, 11} {
		if d, ok := m.Assignment(vp); !ok || d != 1 {
			t.Fatalf("vp %d placed on device %d, want 1", vp, d)
		}
	}
	if got := m.Metrics().Counter("core.admission.placement_refusals").Value(); got == 0 {
		t.Fatal("placement refusals not counted")
	}
	// Draining the quota makes device 0 eligible again.
	m.adm.release(0, 99, 0)
	m.RegisterVP(12)
	if d, _ := m.Assignment(12); d != 0 {
		t.Fatalf("vp 12 placed on device %d, want 0 after drain", d)
	}
}

// TestFarmCapSheds: the farm-wide caps shed submissions once the farm totals
// hit them, no matter which device would serve them.
func TestFarmCapSheds(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{FarmMaxQueuedJobs: 2, FarmMaxQueuedBytes: 256}
	m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	// Every request names memory its VP owns: a pointer it does not own is
	// refused before admission.
	p1, p2 := mallocVP(t, m, 1, 256).Ptr, mallocVP(t, m, 2, 256).Ptr

	// Reserve on both devices directly (reservation without dispatch).
	if oe := m.adm.admit(0, 0, 100); oe != nil {
		t.Fatal(oe)
	}
	resp := m.Handle(1, ipc.D2HReq{Src: p1, N: 8})
	if _, ok := resp.(ipc.OverloadResp); ok {
		t.Fatalf("one job in a farm of cap 2 must admit, got %v", resp)
	}
	if oe := m.adm.admit(1, 1, 100); oe != nil {
		t.Fatal(oe)
	}

	// Farm job cap reached: any submission sheds, non-submits pass.
	or, ok := m.Handle(2, ipc.H2DReq{Dst: p2, Data: make([]byte, 8)}).(ipc.OverloadResp)
	if !ok {
		t.Fatal("submission over farm job cap must shed")
	}
	if !or.Retryable || or.Backoff <= 0 {
		t.Fatalf("farm shed = %+v, want retryable with backoff", or)
	}
	if _, ok := m.Handle(2, ipc.MallocReq{Size: 64}).(ipc.MallocResp); !ok {
		t.Fatal("malloc must bypass queue-based caps")
	}

	// Release one job: under the job cap, but a big payload trips the byte
	// cap (2 jobs × 100B reserved… now 100B + 200B request > 256B).
	m.adm.release(0, 0, 100)
	if _, ok := m.Handle(2, ipc.H2DReq{Dst: p2, Data: make([]byte, 200)}).(ipc.OverloadResp); !ok {
		t.Fatal("submission over farm byte cap must shed")
	}
	if got := m.Metrics().Counter("core.admission.shed.farm-jobs").Value(); got != 1 {
		t.Fatalf("shed.farm-jobs = %d", got)
	}
	if got := m.Metrics().Counter("core.admission.shed.farm-bytes").Value(); got != 1 {
		t.Fatalf("shed.farm-bytes = %d", got)
	}
	snap := m.AdmissionSnapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "core.admission.shed" && c.Value >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("AdmissionSnapshot missing aggregated shed counter")
	}
}
