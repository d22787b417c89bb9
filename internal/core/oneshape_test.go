package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kpl"
)

// replyErr turns an ErrResp or OverloadResp reply into the error the TCP
// client returns for it, and passes every other reply through.
func replyErr(resp any) (any, error) {
	switch e := resp.(type) {
	case ipc.ErrResp:
		return nil, fmt.Errorf("ipc: %s", e.Msg)
	case ipc.OverloadResp:
		return nil, &ipc.OverloadError{Msg: e.Msg, Backoff: e.Backoff, Retryable: e.Retryable}
	}
	return resp, nil
}

// testPipe is a test-only ipc.Client that hands each call straight to an
// endpoint's Handle, as the TCP server does once it has decoded a frame.
type testPipe struct {
	vp int
	ep ipc.Endpoint
}

func (p testPipe) Call(req any) (any, error) { return replyErr(p.ep.Handle(p.vp, req)) }
func (p testPipe) CallH2D(r ipc.H2DReq) (ipc.OKResp, error) {
	return ipc.ReplyAs[ipc.OKResp](p.Call(r))
}
func (p testPipe) CallD2H(r ipc.D2HReq) (ipc.D2HResp, error) {
	return ipc.ReplyAs[ipc.D2HResp](p.Call(r))
}
func (p testPipe) CallMemset(r ipc.MemsetReq) (ipc.OKResp, error) {
	return ipc.ReplyAs[ipc.OKResp](p.Call(r))
}
func (p testPipe) CallLaunch(r ipc.LaunchReq) (ipc.OKResp, error) {
	return ipc.ReplyAs[ipc.OKResp](p.Call(r))
}
func (p testPipe) Close() error { return nil }

// driveGuestScript plays one VP's session through a cudart back end — every
// job kind a device serves: malloc, H2D on two streams, a vectorAdd launch,
// memset, D2H on two streams, free — waiting on each operation, and returns
// the bytes read back.
func driveGuestScript(t *testing.T, b cudart.Backend) []byte {
	t.Helper()
	const n = 1024
	wait := func(tok cudart.Token, err error) cudart.Token {
		t.Helper()
		if err == nil {
			err = tok.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	a, bb := make([]float32, n), make([]float32, n)
	for i := range a {
		a[i], bb[i] = float32(i), float32(3*i)
	}
	ptr := map[string]devmem.Ptr{}
	for _, name := range []string{"a", "b", "out", "scratch"} {
		p, err := b.Malloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		ptr[name] = p
	}
	vecAdd := mustBench(t, "vectorAdd")
	l := &hostgpu.Launch{
		Kernel: vecAdd.Kernel, Prog: vecAdd.Prog, Native: vecAdd.Native,
		Grid: (n + 511) / 512, Block: 512,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
		Bindings: map[string]devmem.Ptr{"a": ptr["a"], "b": ptr["b"], "out": ptr["out"]},
	}
	var out []byte
	for it := 0; it < 2; it++ {
		wait(b.H2D(0, ptr["a"], 0, devmem.EncodeF32(a)))
		wait(b.H2D(1, ptr["b"], 0, devmem.EncodeF32(bb)))
		wait(b.Launch(0, l))
		wait(b.Memset(0, ptr["scratch"], 0, 4*n, byte(it+1)))
		out = append(out, wait(b.D2H(0, ptr["out"], 0, 4*n)).Bytes()...)
		out = append(out, wait(b.D2H(1, ptr["scratch"], 0, 16)).Bytes()...)
	}
	if err := b.Free(ptr["scratch"]); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServedRouteMatchesInProcess: the farm's two doors take one route. A
// one-device farm driven through Handle (the served route, here without the
// wire) and one driven through its in-process back end, playing the same
// guest script, agree on the D2H bytes, the makespan, the simulated snapshot
// and the engine trace.
func TestServedRouteMatchesInProcess(t *testing.T) {
	const vp = 1
	run := func(back func(m *MultiService) cudart.Backend) ([]byte, float64, []byte, []byte) {
		m := migTestFarm(t, 1) // what sigmavpd serves by default
		m.RegisterVP(vp)
		defer m.DisconnectVP(vp)
		d2h := driveGuestScript(t, back(m))
		makespan := m.Sync()
		snap, err := m.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		tl, err := json.Marshal(m.MergedTrace().Records)
		if err != nil {
			t.Fatal(err)
		}
		return d2h, makespan, snap, tl
	}
	served, servedEnd, servedSnap, servedTrace := run(func(m *MultiService) cudart.Backend {
		return cudart.NewRemoteBackend(testPipe{vp: vp, ep: m})
	})
	local, localEnd, localSnap, localTrace := run(func(m *MultiService) cudart.Backend { return m.Backend(vp) })
	if len(served) == 0 || !bytes.Equal(served, local) {
		t.Fatalf("D2H bytes differ (%d served vs %d in process)", len(served), len(local))
	}
	if servedEnd != localEnd || servedEnd <= 0 {
		t.Fatalf("makespan: served %.12g, in process %.12g", servedEnd, localEnd)
	}
	if !bytes.Equal(servedSnap, localSnap) {
		t.Fatalf("simulated snapshots differ:\n--- served\n%s\n--- in process\n%s", servedSnap, localSnap)
	}
	if len(servedTrace) <= len("[]") || !bytes.Equal(servedTrace, localTrace) {
		t.Fatalf("traces differ:\n--- served\n%s\n--- in process\n%s", servedTrace, localTrace)
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
