package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/sched"
	"repro/internal/trace"
)

// migTestFarm builds a small multi-device farm with tracing on.
func migTestFarm(t *testing.T, nDev int) *MultiService {
	t.Helper()
	opts := DefaultOptions()
	opts.Trace = true
	gpus := make([]arch.GPU, nDev)
	for i := range gpus {
		gpus[i] = arch.Quadro4000()
	}
	m, err := NewMultiServicePlaced(opts, gpus, PlaceRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mallocVP allocates through the request path and returns the guest pointer.
func mallocVP(t *testing.T, m *MultiService, vp, n int) ipc.MallocResp {
	t.Helper()
	resp, ok := m.Handle(vp, ipc.MallocReq{Size: n}).(ipc.MallocResp)
	if !ok {
		t.Fatalf("malloc vp %d: unexpected response", vp)
	}
	return resp
}

// TestMigrateMovesState drives the full quiesce→transfer→replay→resume path:
// a VP's buffer written on the source device is readable, byte-identical and
// via the same guest pointer, after migration to the target; the source
// arena no longer holds the bytes; counters, event, and trace record all
// land.
func TestMigrateMovesState(t *testing.T) {
	m := migTestFarm(t, 2)
	m.RegisterVP(0) // → device 0

	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 512)
	p := mallocVP(t, m, 0, len(payload)).Ptr
	if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: payload}).(ipc.OKResp); !ok {
		t.Fatal("H2D failed")
	}
	// Occupy device 1's base addresses so the restore must rebase. A raw
	// arena alloc keeps the batch scheduler out of it: no second VP is
	// registered, so vp 0's synchronous requests dispatch alone.
	if _, err := m.Device(1).GPU.Mem.Alloc(4096); err != nil {
		t.Fatal(err)
	}

	srcUsed := m.Device(0).GPU.Mem.Used()
	if srcUsed == 0 {
		t.Fatal("source arena empty before migration")
	}
	if err := m.Migrate(0, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if d, _ := m.Assignment(0); d != 1 {
		t.Fatalf("vp 0 assigned to device %d after migration, want 1", d)
	}
	if got := m.Device(0).GPU.Mem.Used(); got != srcUsed-int64(len(payload)) {
		t.Fatalf("source arena holds %d bytes after migration, want %d", got, srcUsed-int64(len(payload)))
	}

	// The guest pointer is unchanged; the request path translates it.
	resp, ok := m.Handle(0, ipc.D2HReq{Src: p, N: len(payload)}).(ipc.D2HResp)
	if !ok {
		t.Fatal("D2H after migration failed")
	}
	if !bytes.Equal(resp.Data, payload) {
		t.Fatal("bytes differ after migration")
	}

	snap := m.MigrationSnapshot()
	if snap.CounterValue("core.migrate.migrations") != 1 {
		t.Fatalf("migrations counter = %d, want 1", snap.CounterValue("core.migrate.migrations"))
	}
	if snap.CounterValue("core.migrate.bytes_moved") != int64(len(payload)) {
		t.Fatalf("bytes_moved = %d, want %d", snap.CounterValue("core.migrate.bytes_moved"), len(payload))
	}
	if snap.CounterValue("core.migrate.ptrs_rebased") != 1 {
		t.Fatalf("ptrs_rebased = %d, want 1 (device 1's base was occupied)", snap.CounterValue("core.migrate.ptrs_rebased"))
	}

	// The arrival is a migrated record of VP 0 in the target's timeline.
	var sawRecord bool
	for _, r := range m.Device(1).Trace().Timeline().Records {
		if r.Kind == trace.KindMigrated && r.VP == 0 && r.Engine == "migrate" && r.Stream == 0 {
			sawRecord = true
		}
	}
	if !sawRecord {
		t.Fatal("no migrated record in the target device's timeline")
	}

	// Migrating onto the current device is a no-op, not an error.
	if err := m.Migrate(0, 1); err != nil {
		t.Fatalf("self-device migrate: %v", err)
	}
	if got := m.MigrationSnapshot().CounterValue("core.migrate.migrations"); got != 1 {
		t.Fatalf("no-op migrate bumped the counter to %d", got)
	}

	// Errors: unknown VP, device out of range.
	if err := m.Migrate(42, 1); err == nil {
		t.Fatal("migrating an unknown vp succeeded")
	}
	if err := m.Migrate(0, 9); err == nil {
		t.Fatal("migrating to a nonexistent device succeeded")
	}
}

// TestMigrationTargetJobTimes: a VP arriving lifts its stream clocks on the
// target, but a job the target runs keeps the same submit and plan times
// whether the arrival came before its submit or after it, and on the target
// every record is submitted no later than planned.
func TestMigrationTargetJobTimes(t *testing.T) {
	run := func(migrateFirst bool) []trace.Record {
		m := migTestFarm(t, 2)
		m.RegisterVP(0) // → device 0
		payload := make([]byte, 1<<20)
		p := mallocVP(t, m, 0, len(payload)).Ptr
		if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: payload}).(ipc.OKResp); !ok {
			t.Fatal("H2D failed")
		}
		// VP 1 submits straight to device 1 and is never registered, so
		// VP 0, registered there once it arrives, does not hold its batch.
		dev := m.Device(1)
		q, err := dev.GPU.Mem.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		migrate := func() {
			if err := m.Migrate(0, 1); err != nil {
				t.Fatalf("migrate: %v", err)
			}
		}
		if migrateFirst {
			migrate()
		}
		dev.Submit(sched.NewH2D(1, VPStream(1, 0), q, 0, make([]byte, 4096)))
		dev.Flush()
		if !migrateFirst {
			migrate()
		}
		// VP 0 on the target: its stream was lifted past the target's frontier.
		if _, ok := m.Handle(0, ipc.D2HReq{Src: p, N: len(payload)}).(ipc.D2HResp); !ok {
			t.Fatal("D2H after migration failed")
		}
		recs := dev.Trace().Timeline().Records
		for _, r := range recs {
			if r.Submit > r.Plan {
				t.Fatalf("migrate first %v: record %+v submitted after it was planned", migrateFirst, r)
			}
		}
		return recs
	}
	vp1 := func(recs []trace.Record) []trace.Record {
		var out []trace.Record
		for _, r := range recs {
			if r.VP == 1 {
				out = append(out, r)
			}
		}
		return out
	}
	after, before := vp1(run(false)), vp1(run(true))
	if len(after) != 1 || !slices.Equal(after, before) {
		t.Fatalf("VP 1's records moved with a migration onto its device:\n  arrival after submit:  %+v\n  arrival before submit: %+v", after, before)
	}
}

// TestBackendFollowsMigration: the in-process back end handed out before a
// migration must keep working after it. It used to capture the VP's device
// at construction and went on submitting to the evicted source, where the
// D2H below failed with "read from invalid pointer".
func TestBackendFollowsMigration(t *testing.T) {
	m := migTestFarm(t, 2)
	b := m.Backend(0)
	m.RegisterVP(0)
	data := []byte{5, 4, 3, 2, 1}
	p, err := b.Malloc(len(data))
	if err != nil {
		t.Fatal(err)
	}
	tok, err := b.H2D(0, p, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	tok, err = b.D2H(0, p, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatalf("D2H after migration: %v", err)
	}
	if !bytes.Equal(tok.Bytes(), data) {
		t.Fatalf("D2H after migration read %v, want %v", tok.Bytes(), data)
	}
	if err := b.Free(p); err != nil {
		t.Fatalf("Free after migration: %v", err)
	}
	if b.Service() != m.Device(1) {
		t.Fatal("Service() still reports the source device after the migration")
	}
}

// TestCheckpointRoundTripDisk saves a farm image to disk and restores it
// into a fresh farm: assignments, registration, and bytes must all survive.
func TestCheckpointRoundTripDisk(t *testing.T) {
	// One VP per device: the conf-dac batch scheduler dispatches a device's
	// queue only when every registered VP there is blocked, so sequential
	// per-VP requests need sole tenancy (the drill covers shared tenancy).
	m := migTestFarm(t, 4)
	payloads := map[int][]byte{}
	ptrs := map[int]ipc.MallocResp{}
	for vp := 0; vp < 4; vp++ {
		m.RegisterVP(vp)
		data := bytes.Repeat([]byte{byte(vp + 1)}, 256*(vp+1))
		ptrs[vp] = mallocVP(t, m, vp, len(data))
		if _, ok := m.Handle(vp, ipc.H2DReq{Dst: ptrs[vp].Ptr, Data: data}).(ipc.OKResp); !ok {
			t.Fatalf("vp %d H2D failed", vp)
		}
		payloads[vp] = data
	}
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.VPs) != 4 {
		t.Fatalf("checkpoint has %d VPs, want 4", len(ck.VPs))
	}

	t.Run("binary", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "farm.ckpt")
		if err := SaveCheckpoint(path, ck); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		fresh := migTestFarm(t, 4)
		if err := fresh.Restore(loaded); err != nil {
			t.Fatal(err)
		}
		for vp, data := range payloads {
			wantDev, _ := m.Assignment(vp)
			if d, ok := fresh.Assignment(vp); !ok || d != wantDev {
				t.Fatalf("vp %d restored on device %d (ok=%v), want %d", vp, d, ok, wantDev)
			}
			resp, ok := fresh.Handle(vp, ipc.D2HReq{Src: ptrs[vp].Ptr, N: len(data)}).(ipc.D2HResp)
			if !ok || !bytes.Equal(resp.Data, data) {
				t.Fatalf("vp %d bytes differ after restore", vp)
			}
		}
	})

	// Format invariants: the image opens with the magic, and anything that
	// is not exactly one whole image is refused.
	img := ck.Marshal()
	if !bytes.HasPrefix(img, ckptMagic[:]) {
		t.Fatal("image missing magic")
	}
	if _, err := DecodeCheckpoint(img); err != nil {
		t.Fatalf("decode: %v", err)
	}
	wrongMagic := append([]byte{ckptMagic[0], 'X'}, img[2:]...)
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"truncated":      img[:len(img)-3],
		"trailing bytes": append(append([]byte{}, img...), 0x00),
		"wrong magic":    wrongMagic,
	} {
		if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s image: got %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// TestCheckpointConcurrentWithMigrate pins the farm checkpoint against a
// racing migration: while a VP ping-pongs between two devices, every image
// must carry the VP's full resident bytes, captured on the device the VP was
// on when its gate was taken. Checkpoint used to pick the device before
// taking the gate, so a migration finishing in between left it capturing the
// evicted source: an image with no allocations and Registered=false.
func TestCheckpointConcurrentWithMigrate(t *testing.T) {
	m := migTestFarm(t, 2)
	m.RegisterVP(0)
	payload := bytes.Repeat([]byte{0x5A, 0xC3}, 2048)
	p := mallocVP(t, m, 0, len(payload)).Ptr
	if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: payload}).(ipc.OKResp); !ok {
		t.Fatal("H2D failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for target := 1; ; target ^= 1 {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Migrate(0, target); err != nil {
				t.Errorf("migrate to %d: %v", target, err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		ck, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if len(ck.VPs) != 1 {
			t.Fatalf("checkpoint %d: %d VPs in the image, want 1", i, len(ck.VPs))
		}
		v := ck.VPs[0]
		if !v.Registered || len(v.Allocs) != 1 || !bytes.Equal(v.Allocs[0].Data, payload) {
			t.Fatalf("checkpoint %d: image of device %d lost the VP's state: registered=%v, %d allocs, %d bytes",
				i, v.Device, v.Registered, len(v.Allocs), v.Bytes())
		}
	}
	close(stop)
	wg.Wait()

	// With migrations quiesced, the image names the device Assignment does.
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := m.Assignment(0); ck.VPs[0].Device != d || ck.VPs[0].Bytes() != int64(len(payload)) {
		t.Fatalf("quiesced image: device %d with %d bytes, want device %d with %d",
			ck.VPs[0].Device, ck.VPs[0].Bytes(), d, len(payload))
	}
}

// TestRestoreCollision pins the double-restore guard: restoring a VP that
// already holds allocations on the device must fail and leave it intact.
func TestRestoreCollision(t *testing.T) {
	m := migTestFarm(t, 1)
	m.RegisterVP(0)
	data := []byte{1, 2, 3, 4}
	p := mallocVP(t, m, 0, len(data)).Ptr
	if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: data}).(ipc.OKResp); !ok {
		t.Fatal("H2D failed")
	}
	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(ck); err == nil {
		t.Fatal("restoring over a live VP succeeded")
	}
	resp, ok := m.Handle(0, ipc.D2HReq{Src: p, N: len(data)}).(ipc.D2HResp)
	if !ok || !bytes.Equal(resp.Data, data) {
		t.Fatal("failed restore corrupted the live VP")
	}
}

// TestAllocAfterRebaseKeepsTheRebasedBuffer: a malloc never overwrites the
// VP's own table entry. VP 0's pointer is rebased onto VP 1's device, VP 1
// frees the address VP 0's guest pointer names, and VP 0's next malloc must
// get a different pointer: the old one still reads its bytes, both
// allocations count in Used, and both free.
func TestAllocAfterRebaseKeepsTheRebasedBuffer(t *testing.T) {
	const n = 256
	m := migTestFarm(t, 2)
	m.RegisterVP(0) // → device 0
	m.RegisterVP(1) // → device 1
	data := bytes.Repeat([]byte{0x77}, n)
	p := mallocVP(t, m, 0, n).Ptr
	if q := mallocVP(t, m, 1, n).Ptr; q != p {
		t.Fatalf("vp 1 got %#x, vp 0 %#x: the collision this test needs did not happen", uint64(q), uint64(p))
	}
	if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: data}).(ipc.OKResp); !ok {
		t.Fatal("H2D failed")
	}
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.MigrationSnapshot().CounterValue("core.migrate.ptrs_rebased"); got != 1 {
		t.Fatalf("ptrs_rebased = %d, want 1", got)
	}
	if _, ok := m.Handle(1, ipc.FreeReq{Ptr: p}).(ipc.OKResp); !ok {
		t.Fatal("vp 1's free failed")
	}
	m.UnregisterVP(1) // VP 0's jobs need no one else parked
	mem := m.Device(1).GPU.Mem
	used := mem.Used()
	fresh := mallocVP(t, m, 0, n).Ptr
	if fresh == p {
		t.Fatalf("vp 0's malloc returned %#x, the guest pointer it already holds", uint64(p))
	}
	if got := mem.Used(); got != used+n {
		t.Fatalf("Used = %d after the malloc, want %d", got, used+n)
	}
	resp, ok := m.Handle(0, ipc.D2HReq{Src: p, N: n}).(ipc.D2HResp)
	if !ok || !bytes.Equal(resp.Data, data) {
		t.Fatal("vp 0's rebased buffer lost its bytes to the malloc")
	}
	for _, ptr := range []devmem.Ptr{p, fresh} {
		if _, ok := m.Handle(0, ipc.FreeReq{Ptr: ptr}).(ipc.OKResp); !ok {
			t.Fatalf("free of %#x failed", uint64(ptr))
		}
	}
	if got := mem.Used(); got != 0 {
		t.Fatalf("Used = %d after vp 0 freed everything, want 0", got)
	}
}

// TestMigrateAdminIPC drives the farm-admin requests end to end through
// Handle: MigrateReq moves the VP and CheckpointReq returns a decodable image.
// (A one-device farm's answers are pinned by TestOneDeviceFarmAdmin.)
func TestMigrateAdminIPC(t *testing.T) {
	m := migTestFarm(t, 2)
	m.RegisterVP(0)
	data := []byte{9, 8, 7, 6}
	p := mallocVP(t, m, 0, len(data)).Ptr
	if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: data}).(ipc.OKResp); !ok {
		t.Fatal("H2D failed")
	}

	// A VP may migrate itself: the admin request bypasses its gate.
	if _, ok := m.Handle(0, ipc.MigrateReq{VP: 0, Target: 1}).(ipc.OKResp); !ok {
		t.Fatal("MigrateReq did not return OK")
	}
	if d, _ := m.Assignment(0); d != 1 {
		t.Fatalf("vp on device %d after MigrateReq, want 1", d)
	}
	if _, ok := m.Handle(0, ipc.MigrateReq{VP: 0, Target: 5}).(ipc.ErrResp); !ok {
		t.Fatal("MigrateReq to a bad device did not return an error")
	}

	resp, ok := m.Handle(0, ipc.CheckpointReq{}).(ipc.CheckpointResp)
	if !ok {
		t.Fatal("CheckpointReq did not return a checkpoint")
	}
	ck, err := DecodeCheckpoint(resp.Data)
	if err != nil {
		t.Fatalf("CheckpointReq: %v", err)
	}
	if len(ck.VPs) != 1 || ck.VPs[0].Device != 1 {
		t.Fatalf("CheckpointReq: unexpected image %+v", ck)
	}
}

// TestMigrateUnderTraffic races a VP's live request stream against repeated
// migrations of that same VP. The VP is the sole registered tenant wherever
// it lands — the batch scheduler dispatches its synchronous requests alone —
// so every interleaving the gate permits is explored without wedging the
// all-stopped predicate (shared-tenancy migration is the drill's job). Under
// -race this checks the gate discipline; the data checks ensure no write is
// lost and no pointer dangles across the moves.
func TestMigrateUnderTraffic(t *testing.T) {
	m := migTestFarm(t, 2)
	m.RegisterVP(0)
	const writes = 64
	const moves = 9
	p := mallocVP(t, m, 0, writes).Ptr
	// Device 1's base stays occupied, so every migration onto it rebases.
	if _, err := m.Device(1).GPU.Mem.Alloc(4096); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			b := []byte{byte(i)}
			if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Off: i, Data: b}).(ipc.OKResp); !ok {
				errc <- fmt.Errorf("write %d failed", i)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < moves; i++ {
			if err := m.Migrate(0, (i+1)%2); err != nil {
				errc <- fmt.Errorf("migrate %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	resp, ok := m.Handle(0, ipc.D2HReq{Src: p, N: writes}).(ipc.D2HResp)
	if !ok {
		t.Fatal("final D2H failed")
	}
	for i, b := range resp.Data {
		if b != byte(i) {
			t.Fatalf("byte %d = %#x after %d migrations, want %#x", i, b, moves, byte(i))
		}
	}
	snap := m.MigrationSnapshot()
	if got := snap.CounterValue("core.migrate.migrations"); got != moves {
		t.Fatalf("migrations = %d, want %d", got, moves)
	}
	if snap.CounterValue("core.migrate.ptrs_rebased") == 0 {
		t.Fatal("no pointer rebases across ping-pong migrations")
	}
}
