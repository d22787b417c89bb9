package core

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// TestDisconnectCancelsOrphanedJobs: a VP that vanishes mid-batch must have
// its still-queued jobs finished with ErrCancelled (waking anything blocked
// on them) while the surviving VPs' work dispatches and completes with
// correct results — instead of the dead VP wedging the all-stopped
// predicate forever.
func TestDisconnectCancelsOrphanedJobs(t *testing.T) {
	m, s := farmOfOne(t, DefaultOptions())
	s.RegisterVP(0)
	s.RegisterVP(1)

	// VP 0 enqueues work and then "crashes": nothing ever waits on it, and
	// without the disconnect path it would keep the batch from dispatching
	// (active but never stopped).
	p0, err := s.GPU.Mem.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	st0, err := streamOf(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	orphanA := sched.NewH2D(0, st0, p0, 0, []byte{1, 2, 3})
	orphanB := sched.NewD2H(0, st0, p0, 0, 3)
	s.Submit(orphanA)
	s.Submit(orphanB)

	// VP 1 does a synchronous round trip; it blocks until VP 0 goes away.
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	got := make(chan []byte, 1)
	fail := make(chan error, 1)
	go func() {
		ctx := cudart.NewContext(1, m.Backend(1))
		p1, err := ctx.Malloc(len(payload))
		if err != nil {
			fail <- err
			return
		}
		if err := ctx.MemcpyH2D(p1, payload); err != nil {
			fail <- err
			return
		}
		data, err := ctx.MemcpyD2H(p1, len(payload))
		if err != nil {
			fail <- err
			return
		}
		got <- data
	}()

	// Wait until VP 1 is stopped at its synchronous point, so the
	// disconnect really happens mid-batch.
	waitUntil(t, func() bool {
		st := s.shard(1)
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.blocked > 0
	})

	s.DisconnectVP(0)

	if err := orphanA.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("orphan A: want ErrCancelled, got %v", err)
	}
	if err := orphanB.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("orphan B: want ErrCancelled, got %v", err)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatalf("survivor data %x, want %x", data, payload)
		}
	case err := <-fail:
		t.Fatalf("surviving VP failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("surviving VP still wedged after disconnect")
	}
}

// TestTCPDisconnectMidBatch runs the same scenario over the real socket
// transport: killing one VP's connection while its request is blocked in
// VP-control batching must unwedge the service and let the other VP's jobs
// complete with correct results.
func TestTCPDisconnectMidBatch(t *testing.T) {
	m, s := farmOfOne(t, DefaultOptions())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, m)
	defer srv.Close()

	c1, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ipc.Dial(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Both VPs registered before any work, so VP 1's call really blocks on
	// VP 2 being unstopped.
	waitUntil(t, func() bool {
		s.regMu.RLock()
		defer s.regMu.RUnlock()
		return len(s.order) == 2
	})

	p1resp, err := c1.Call(ipc.MallocReq{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	p1 := p1resp.(ipc.MallocResp).Ptr

	callErr := make(chan error, 1)
	go func() {
		_, err := c1.Call(ipc.H2DReq{Dst: p1, Data: []byte{9, 9, 9}})
		callErr <- err
	}()
	waitUntil(t, func() bool {
		st := s.shard(1)
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.blocked > 0
	})

	// VP 1's platform dies mid-batch.
	c1.Close()

	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("call on a killed connection reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed VP's call never returned")
	}

	// The surviving VP's work dispatches and round-trips correctly.
	p2resp, err := c2.Call(ipc.MallocReq{Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	p2 := p2resp.(ipc.MallocResp).Ptr
	payload := []byte{1, 2, 3, 4}
	if _, err := c2.Call(ipc.H2DReq{Dst: p2, Data: payload}); err != nil {
		t.Fatalf("survivor H2D after peer disconnect: %v", err)
	}
	d2h, err := c2.Call(ipc.D2HReq{Src: p2, N: len(payload)})
	if err != nil {
		t.Fatalf("survivor D2H after peer disconnect: %v", err)
	}
	if data := d2h.(ipc.D2HResp).Data; !bytes.Equal(data, payload) {
		t.Fatalf("survivor read %x, want %x", data, payload)
	}
}

// TestPipeProtocolByteIdentical: the remote back end over a test pipe into
// Handle must produce byte-identical results and identical simulated times to
// the farm's in-process back end — the served route and the in-process one
// take one submission path.
func TestPipeProtocolByteIdentical(t *testing.T) {
	run := func(mk func(m *MultiService) cudart.Backend) ([]byte, float64, float64) {
		m, s := farmOfOne(t, DefaultOptions())
		s.RegisterVP(0)
		defer s.UnregisterVP(0)
		ctx := cudart.NewContext(0, mk(m))

		bench := mustBench(t, "vectorAdd")
		w := bench.MakeWorkload(1)
		l := bench.NewLaunch(w)
		l.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			ptr, err := ctx.Malloc(w.BufBytes[decl.Name])
			if err != nil {
				t.Fatal(err)
			}
			l.Bindings[decl.Name] = ptr
			if in, ok := w.Inputs[decl.Name]; ok {
				if err := ctx.MemcpyH2D(ptr, in); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ctx.LaunchKernel(l); err != nil {
			t.Fatal(err)
		}
		out := w.OutBufs[0]
		data, err := ctx.MemcpyD2H(l.Bindings[out], w.BufBytes[out])
		if err != nil {
			t.Fatal(err)
		}
		return data, s.Sync(), s.SessionEnergy()
	}

	direct, directSync, directEnergy := run(func(m *MultiService) cudart.Backend {
		return m.Backend(0)
	})
	piped, pipedSync, pipedEnergy := run(func(m *MultiService) cudart.Backend {
		return cudart.NewRemoteBackend(testPipe{vp: 0, ep: m})
	})

	if !bytes.Equal(direct, piped) {
		t.Fatal("pipe transport output differs from direct backend")
	}
	if directSync != pipedSync {
		t.Fatalf("simulated sync time differs: direct %v, pipe %v", directSync, pipedSync)
	}
	if directEnergy != pipedEnergy {
		t.Fatalf("session energy differs: direct %v, pipe %v", directEnergy, pipedEnergy)
	}
}

func mustBench(t *testing.T, name string) *kernels.Benchmark {
	t.Helper()
	b, err := kernels.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
