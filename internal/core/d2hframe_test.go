package core

import (
	"bytes"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/devmem"
	"repro/internal/ipc"
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

// serveTCP serves s on a loopback listener.
func serveTCP(t *testing.T, s *Service) *ipc.Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, s)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialTyped connects vp to srv.
func dialTyped(t *testing.T, srv *ipc.Server, vp int) (ipc.Client, ipc.TypedCaller) {
	t.Helper()
	c, err := ipc.Dial(srv.Addr().String(), vp)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.(ipc.TypedCaller)
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
// pooled response frame, so job, events and bookkeeping are all that it adds.
func TestServedD2HAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	s := NewService(DefaultOptions())
	defer s.Close()
	srv := serveTCP(t, s)
	c, tc := dialTyped(t, srv, 1)
	defer c.Close()

	const payload = 256 << 10
	want := fillPattern(payload, 1)
	p := allocFilled(t, s, 1, want)
	d2h := func() {
		d, err := tc.CallD2H(ipc.D2HReq{Src: p, N: payload})
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

// TestDisconnectKeepsD2HFrames hammers D2H from a VP whose connection is cut
// mid-flight, round after round, next to a VP that keeps reading its own
// allocation. A cut connection cancels the victim's queued jobs and fails its
// handlers while a job already handed to the executor may still be writing
// the response frame, so such a frame must never reach the pool: if it did,
// the survivor's next response would be built in a buffer another job still
// writes, and its bytes (checked here) or the race detector would show it.
func TestDisconnectKeepsD2HFrames(t *testing.T) {
	s := NewService(DefaultOptions())
	defer s.Close()
	srv := serveTCP(t, s)

	const n = 64 << 10
	mine, theirs := fillPattern(n, 1), fillPattern(n, 2)
	pMine := allocFilled(t, s, 1, mine)
	pTheirs := allocFilled(t, s, 2, theirs)
	survivor, stc := dialTyped(t, srv, 1)
	defer survivor.Close()
	readMine := func(when string, round int) {
		t.Helper()
		for i := 0; i < 3; i++ {
			d, err := stc.CallD2H(ipc.D2HReq{Src: pMine, N: n})
			if err != nil {
				t.Fatalf("round %d, %s: survivor D2H: %v", round, when, err)
			}
			if !bytes.Equal(d.Data, mine) {
				t.Fatalf("round %d, %s: survivor read bytes that are not its allocation's", round, when)
			}
		}
	}

	for round := 0; round < 12; round++ {
		victim, vtc := dialTyped(t, srv, 2)
		var wg sync.WaitGroup
		for stream := 0; stream < 4; stream++ {
			wg.Add(1)
			go func(stream int) {
				defer wg.Done()
				for {
					d, err := vtc.CallD2H(ipc.D2HReq{Stream: stream, Src: pTheirs, N: n})
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
