package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// driveGuestScript plays one VP's session against an endpoint over ipc.Pipe —
// every request kind a device serves: malloc, H2D on two streams, a launch by
// registry name, memset, D2H, free, sync — and returns the bytes read back.
func driveGuestScript(t *testing.T, ep ipc.Endpoint) []byte {
	t.Helper()
	const vp, n = 1, 1024
	ep.RegisterVP(vp)
	defer ep.DisconnectVP(vp)
	c := ipc.Pipe(vp, ep.Handle)
	call := func(req any) any {
		resp, err := c.Call(req)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		return resp
	}
	a, b := make([]float32, n), make([]float32, n)
	for i := range a {
		a[i], b[i] = float32(i), float32(3*i)
	}
	ptr := map[string]devmem.Ptr{}
	for _, name := range []string{"a", "b", "out", "scratch"} {
		ptr[name] = call(ipc.MallocReq{Size: 4 * n}).(ipc.MallocResp).Ptr
	}
	var out []byte
	for it := 0; it < 2; it++ {
		call(ipc.H2DReq{Dst: ptr["a"], Data: devmem.EncodeF32(a)})
		call(ipc.H2DReq{Dst: ptr["b"], Stream: 1, Data: devmem.EncodeF32(b)})
		call(ipc.LaunchReq{
			Kernel: "vectorAdd", Grid: (n + 511) / 512, Block: 512,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
			Bindings: map[string]devmem.Ptr{"a": ptr["a"], "b": ptr["b"], "out": ptr["out"]},
		})
		call(ipc.MemsetReq{Dst: ptr["scratch"], N: 4 * n, Value: byte(it + 1)})
		out = append(out, call(ipc.D2HReq{Src: ptr["out"], N: 4 * n}).(ipc.D2HResp).Data...)
		out = append(out, call(ipc.D2HReq{Src: ptr["scratch"], Stream: 1, N: 16}).(ipc.D2HResp).Data...)
	}
	call(ipc.FreeReq{Ptr: ptr["scratch"]})
	call(ipc.SyncReq{})
	return out
}

// unprefixed keeps the instruments of a farm snapshot that carry no "gpu<i>."
// namespace — the families a bare Service snapshot has.
func unprefixed(s metrics.Snapshot) metrics.Snapshot {
	var out metrics.Snapshot
	for _, c := range s.Counters {
		if !strings.HasPrefix(c.Name, "gpu") {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if !strings.HasPrefix(g.Name, "gpu") {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if !strings.HasPrefix(h.Name, "gpu") {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// TestOneDeviceFarmMatchesBareService pins the single-device behaviour
// through the route the daemon now always takes: a one-device MultiService
// and a bare Service, driven by the same request script, agree on the D2H
// bytes, the makespan, every unprefixed snapshot family (the farm adds only
// "gpu0." copies of them) and the engine trace modulo the "gpu0/" label.
func TestOneDeviceFarmMatchesBareService(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true // as migTestFarm builds its devices
	svc := NewService(opts)
	defer svc.Close()
	farm := migTestFarm(t, 1) // what sigmavpd serves by default

	svcD2H, farmD2H := driveGuestScript(t, svc), driveGuestScript(t, farm)
	if len(svcD2H) == 0 || !bytes.Equal(svcD2H, farmD2H) {
		t.Fatalf("D2H bytes differ (%d vs %d bytes)", len(svcD2H), len(farmD2H))
	}
	if s, f := svc.Sync(), farm.Sync(); s != f || s <= 0 {
		t.Fatalf("makespan: service %.12g, farm %.12g", s, f)
	}

	svcSnap, farmSnap := svc.Snapshot(), farm.Snapshot()
	want, _ := json.Marshal(svcSnap)
	if got, _ := json.Marshal(unprefixed(farmSnap)); !bytes.Equal(got, want) {
		t.Fatalf("unprefixed farm families differ from the bare service:\n--- farm\n%s\n--- service\n%s", got, want)
	}
	// …and the namespaced half of the farm snapshot is the same numbers again.
	for _, c := range svcSnap.Counters {
		if got := farmSnap.CounterValue("gpu0." + c.Name); got != c.Value {
			t.Fatalf("gpu0.%s = %d, service has %d", c.Name, got, c.Value)
		}
	}

	var want2 []trace.Record
	for _, r := range svc.Trace().Timeline().Records {
		r.Engine = "gpu0/" + r.Engine
		want2 = append(want2, r)
	}
	got2 := farm.MergedTrace().Records
	if len(want2) == 0 || len(got2) != len(want2) {
		t.Fatalf("trace: farm has %d records, service %d", len(got2), len(want2))
	}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("trace record %d: farm %+v, service (relabeled) %+v", i, got2[i], want2[i])
		}
	}
}

// parentSingleDeviceImageHex is a `Devices: 1` checkpoint exactly as the
// single-device daemon wrote it before sigmavpd always served a farm
// (captured from the bare Service's own checkpoint method at that commit:
// VP 3, two allocations, two stream clocks). Such -checkpoint-out files must
// keep restoring.
const parentSingleDeviceImageHex = "d6434b010101060001028020087369676d617670318022040102030402808018106674c8372be93e828018a1859bb2062bf93e"

// TestOneDeviceFarmRestoresSingleDeviceImage restores the old single-device
// daemon's image into the one-device farm, re-checkpoints it unchanged, and
// reads the same bytes back through the farm's request path.
func TestOneDeviceFarmRestoresSingleDeviceImage(t *testing.T) {
	img, err := hex.DecodeString(parentSingleDeviceImageHex)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Devices != 1 || len(ck.VPs) != 1 || len(ck.VPs[0].Allocs) != 2 {
		t.Fatalf("image decoded to %+v", ck)
	}
	farm := migTestFarm(t, 1)
	if err := farm.Restore(ck); err != nil {
		t.Fatal(err)
	}
	// The farm's own image of the restored state is the old image, byte for
	// byte: device count, placement, registration, allocations, stream clocks.
	again, err := farm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Marshal(); !bytes.Equal(got, img) {
		t.Fatalf("farm image differs from the single-device image:\n got %x\nwant %x", got, img)
	}
	v := ck.VPs[0]
	if d, ok := farm.Assignment(v.VP); !ok || d != 0 {
		t.Fatalf("vp %d restored on device %d (ok=%v), want 0", v.VP, d, ok)
	}
	for _, e := range v.Allocs {
		resp, ok := farm.Handle(v.VP, ipc.D2HReq{Src: e.Ptr, N: len(e.Data)}).(ipc.D2HResp)
		if !ok || !bytes.Equal(resp.Data, e.Data) {
			t.Fatalf("alloc %#x read back %q, image has %q", uint64(e.Ptr), resp.Data, e.Data)
		}
	}
}

// TestOneDeviceFarmAdmin: the farm-admin requests a single-device daemon
// receives are answered by the farm layer — CheckpointReq with a Devices: 1
// image, MigrateReq off the only device with an error, onto it as a no-op.
func TestOneDeviceFarmAdmin(t *testing.T) {
	farm := migTestFarm(t, 1)
	farm.RegisterVP(0)
	p := mallocVP(t, farm, 0, 4).Ptr
	if _, ok := farm.Handle(0, ipc.H2DReq{Dst: p, Data: []byte{1, 2, 3, 4}}).(ipc.OKResp); !ok {
		t.Fatal("H2D failed")
	}
	resp, ok := farm.Handle(0, ipc.CheckpointReq{}).(ipc.CheckpointResp)
	if !ok {
		t.Fatal("CheckpointReq did not return a checkpoint")
	}
	ck, err := DecodeCheckpoint(resp.Data)
	if err != nil || ck.Devices != 1 || len(ck.VPs) != 1 || ck.VPs[0].Device != 0 {
		t.Fatalf("CheckpointReq image %+v, err %v", ck, err)
	}
	if _, ok := farm.Handle(0, ipc.MigrateReq{VP: 0, Target: 1}).(ipc.ErrResp); !ok {
		t.Fatal("MigrateReq off the only device did not return an error")
	}
	if _, ok := farm.Handle(0, ipc.MigrateReq{VP: 0, Target: 0}).(ipc.OKResp); !ok {
		t.Fatal("MigrateReq onto the VP's own device is a no-op and must succeed")
	}
}
