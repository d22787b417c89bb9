package core

import (
	"bytes"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kpl"
	"repro/internal/raceflag"
)

// fillPattern returns n bytes that depend on position and seed.
func fillPattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + seed)
	}
	return b
}

// serveTCP serves a one-device farm on a loopback listener and returns the
// server and the farm's device.
func serveTCP(t *testing.T) (*ipc.Server, *Service) {
	t.Helper()
	return serveTCPWith(t, DefaultOptions())
}

// serveTCPWith is serveTCP for a farm built with opts.
func serveTCPWith(t *testing.T, opts Options) (*ipc.Server, *Service) {
	t.Helper()
	m, s := farmOfOne(t, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, m)
	t.Cleanup(func() {
		srv.Close()
	})
	return srv, s
}

// dialTCP connects vp to srv.
func dialTCP(t *testing.T, srv *ipc.Server, vp int) ipc.Client {
	t.Helper()
	c, err := ipc.Dial(srv.Addr().String(), vp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allocFilled gives vp an allocation holding data.
func allocFilled(t *testing.T, s *Service, vp int, data []byte) devmem.Ptr {
	t.Helper()
	p, err := s.AllocVP(vp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.GPU.Mem.Write(p, 0, data); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServedD2HAllocs pins what a TCP-served D2H of payload size allocates,
// client and service in this process: the client's caller-owned result and
// nothing else of that size — the service reads the device bytes into a
// pooled response frame, so the job and its bookkeeping are all that it adds.
func TestServedD2HAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	srv, s := serveTCP(t)
	c := dialTCP(t, srv, 1)
	defer c.Close()

	const payload = 256 << 10
	want := fillPattern(payload, 1)
	p := allocFilled(t, s, 1, want)
	d2h := func() {
		d, err := c.CallD2H(ipc.D2HReq{Src: p, N: payload})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Data, want) {
			t.Fatal("D2H bytes differ from device memory")
		}
	}
	for i := 0; i < 16; i++ { // warm the connection and the frame pool
		d2h()
	}
	const calls = 64
	// No collection while measuring: one would empty the frame pool, and the
	// frame made to refill it reads as a payload-sized allocation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		d2h()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("served D2H of %d bytes: %.0f B/op, of which %d are the client's result", payload, perOp, payload)
	if perOp > 1.1*payload {
		t.Errorf("served D2H of %d bytes allocates %.0f B/op: the service made a payload-sized allocation", payload, perOp)
	}
}

// TestShedD2HAllocs: a D2H shed at the admission door allocates no more often
// than an H2D of the same size shed there, and no more bytes past a 1 KiB
// slack. The D2H's pooled response frame is drawn before admission decides;
// a shed hands it back to the pool instead of leaving a payload-sized buffer
// to the collector.
func TestShedD2HAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedBytes: 16}
	m, s := farmOfOne(t, opts)
	m.RegisterVP(1)
	const payload = 256 << 10
	p := allocFilled(t, s, 1, make([]byte, payload))
	data := make([]byte, payload)
	// No collection while measuring: one would empty the frame pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	shed := func(req any) (allocs, bytes float64) {
		const calls = 64
		for i := 0; i < 4; i++ { // warm the pool and the shed counters
			m.Handle(1, req)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(calls, func() {
			if _, ok := m.Handle(1, req).(ipc.OverloadResp); !ok {
				t.Fatalf("%T was not shed", req)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (calls + 1) // AllocsPerRun runs once more to warm up
	}
	h2dAllocs, h2dBytes := shed(ipc.H2DReq{Dst: p, Data: data})
	d2hAllocs, d2hBytes := shed(ipc.D2HReq{Src: p, N: payload})
	t.Logf("shed H2D: %.1f allocs, %.0f B; shed D2H: %.1f allocs, %.0f B", h2dAllocs, h2dBytes, d2hAllocs, d2hBytes)
	// Bytes per call read a few bytes of background noise now and then; a
	// dropped frame costs the whole payload, far above this slack.
	const slack = 1 << 10
	if d2hAllocs > h2dAllocs || d2hBytes > h2dBytes+slack {
		t.Errorf("a shed %d-byte D2H allocates %.1f times, %.0f B; a shed H2D %.1f times, %.0f B",
			payload, d2hAllocs, d2hBytes, h2dAllocs, h2dBytes)
	}
}

// TestServedRoundAllocs pins what one served copy-stream round allocates on
// the service side at steady state: two whole-allocation H2Ds of 256 KiB, a
// vectorAdd launch and a D2H, client and service in this process. Input "a"
// alternates between two patterns, so its payload becomes the allocation's
// backing and the launch runs every round; "b" is sent unchanged, so its
// payload moves nowhere. The launch's writable copy is a pool buffer
// committed by swap, and the D2H is read into a pooled response frame, so
// past the client's own D2H result the round allocates only jobs and their
// bookkeeping; an untraced device records no per-job history.
func TestServedRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	srv, s := serveTCP(t)
	c := dialTCP(t, srv, 1)
	defer c.Close()

	const elems = 64 << 10
	const payload = 4 * elems
	as, b := [2][]byte{fillPattern(payload, 1), fillPattern(payload, 4)}, fillPattern(payload, 2)
	pa, pb, pout := allocFilled(t, s, 1, as[0]), allocFilled(t, s, 1, b), allocFilled(t, s, 1, fillPattern(payload, 3))
	launch := ipc.LaunchReq{
		Kernel: "vectorAdd", Grid: elems / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(elems)},
		Bindings: map[string]devmem.Ptr{"a": pa, "b": pb, "out": pout},
	}
	sent := 0
	round := func() {
		a := as[sent%2]
		sent++
		for _, h2d := range []ipc.H2DReq{{Dst: pa, Data: a}, {Dst: pb, Data: b}} {
			if _, err := c.CallH2D(h2d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CallLaunch(launch); err != nil {
			t.Fatal(err)
		}
		if d, err := c.CallD2H(ipc.D2HReq{Src: pout, N: payload}); err != nil || len(d.Data) != payload {
			t.Fatalf("D2H: %d bytes, %v", len(d.Data), err)
		}
	}
	for i := 0; i < 16; i++ { // warm the connection, the pools and the timing cache
		round()
	}
	const rounds = 64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	service := float64(after.TotalAlloc-before.TotalAlloc)/rounds - payload
	t.Logf("served round: %.0f B beyond the client's %d-byte D2H result", service, payload)
	if service >= 16<<10 {
		t.Errorf("a served round allocates %.0f B on the service side, want < 16 KiB", service)
	}
	// Round 0 re-sends the "a" allocFilled wrote; every later round changes it.
	adopted := s.Metrics().Counter("core.exec.h2d_adopted_bytes").Value()
	unchanged := s.Metrics().Counter("core.exec.h2d_unchanged_bytes").Value()
	if adopted != int64(payload*(sent-1)) || adopted+unchanged != int64(2*payload*sent) {
		t.Errorf("%d H2D bytes adopted and %d unchanged, want %d adopted of the %d sent",
			adopted, unchanged, payload*(sent-1), 2*payload*sent)
	}
}

// TestDisconnectKeepsD2HFrames hammers D2H from a VP whose connection is cut
// mid-flight, round after round, next to a VP that keeps reading its own
// allocation. A cut connection cancels the victim's queued jobs and fails its
// handlers while a job already handed to the executor may still be writing
// the response frame, so such a frame must never reach the pool: if it did,
// the survivor's next response would be built in a buffer another job still
// writes, and its bytes (checked here) or the race detector would show it.
func TestDisconnectKeepsD2HFrames(t *testing.T) {
	srv, s := serveTCP(t)

	const n = 64 << 10
	mine, theirs := fillPattern(n, 1), fillPattern(n, 2)
	pMine := allocFilled(t, s, 1, mine)
	pTheirs := allocFilled(t, s, 2, theirs)
	survivor := dialTCP(t, srv, 1)
	defer survivor.Close()
	readMine := func(when string, round int) {
		t.Helper()
		for i := 0; i < 3; i++ {
			d, err := survivor.CallD2H(ipc.D2HReq{Src: pMine, N: n})
			if err != nil {
				t.Fatalf("round %d, %s: survivor D2H: %v", round, when, err)
			}
			if !bytes.Equal(d.Data, mine) {
				t.Fatalf("round %d, %s: survivor read bytes that are not its allocation's", round, when)
			}
		}
	}

	for round := 0; round < 12; round++ {
		victim := dialTCP(t, srv, 2)
		var wg sync.WaitGroup
		for stream := 0; stream < 4; stream++ {
			wg.Add(1)
			go func(stream int) {
				defer wg.Done()
				for {
					d, err := victim.CallD2H(ipc.D2HReq{Stream: stream, Src: pTheirs, N: n})
					if err != nil {
						return // the connection was cut
					}
					if !bytes.Equal(d.Data, theirs) {
						t.Errorf("round %d: victim read bytes that are not its allocation's", round)
						return
					}
				}
			}(stream)
		}
		readMine("while the victim hammers", round)
		victim.Close()
		wg.Wait()
		readMine("after the disconnect", round)
	}
}

// TestServedHeapBounded: what a served session retains does not grow with
// the requests it has served. The heap left after a collection is measured
// after N rounds and again after 4N; per-job history is kept only by a traced
// device, in a ring of fixed capacity, so an untraced device keeps nothing
// per job once its batch has retired — not even an estimate target's
// predictions, which are timeline records.
func TestServedHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("serves hundreds of rounds")
	}
	tegra := arch.TegraK1()
	estimating := DefaultOptions()
	estimating.EstimateTarget = &tegra
	t.Run("default", func(t *testing.T) { servedHeapBounded(t, DefaultOptions()) })
	t.Run("untraced-estimate-target", func(t *testing.T) { servedHeapBounded(t, estimating) })
}

func servedHeapBounded(t *testing.T, opts Options) {
	srv, s := serveTCPWith(t, opts)
	c := dialTCP(t, srv, 1)
	defer c.Close()

	const elems = 1 << 10
	const payload = 4 * elems
	a, b := fillPattern(payload, 1), fillPattern(payload, 2)
	pa, pb, pout := allocFilled(t, s, 1, a), allocFilled(t, s, 1, b), allocFilled(t, s, 1, fillPattern(payload, 3))
	launch := ipc.LaunchReq{
		Kernel: "vectorAdd", Grid: elems / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(elems)},
		Bindings: map[string]devmem.Ptr{"a": pa, "b": pb, "out": pout},
	}
	rounds := func(n int) uint64 {
		for i := 0; i < n; i++ {
			for _, h2d := range []ipc.H2DReq{{Dst: pa, Data: a}, {Dst: pb, Data: b}} {
				if _, err := c.CallH2D(h2d); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.CallLaunch(launch); err != nil {
				t.Fatal(err)
			}
			if _, err := c.CallD2H(ipc.D2HReq{Src: pout, N: payload}); err != nil {
				t.Fatal(err)
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = 128
	rounds(16) // warm the connection, the pools and the timing cache
	first := rounds(n)
	after := rounds(3 * n)
	grew := int64(after) - int64(first)
	t.Logf("retained heap after %d rounds %d B, after %d rounds %d B (%+d B)", n, first, 4*n, after, grew)
	if grew > 64<<10 {
		t.Errorf("retained heap grew %d B over %d more served rounds (%.0f B a job)", grew, 3*n, float64(grew)/(3*n*4))
	}
}
