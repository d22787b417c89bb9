package core

import (
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/ipc"
)

// TestMultiServiceConcurrentRegistration is the byVP data-race regression:
// RegisterVP, Backend, Handle, and DisconnectVP race freely from concurrent
// connection handlers, exactly as the IPC server drives them. Before the
// MultiService lock, the unsynchronized byVP map made this crash under
// -race (and corrupt the map without it).
func TestMultiServiceConcurrentRegistration(t *testing.T) {
	m, err := NewMultiService(DefaultOptions(), arch.HostGPUs())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for vp := 0; vp < 16; vp++ {
		wg.Add(1)
		go func(vp int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m.RegisterVP(vp)
				if _, ok := m.Assignment(vp); !ok {
					t.Errorf("vp %d registered but unassigned", vp)
					return
				}
				b := m.Backend(vp)
				if b.Service() == nil {
					t.Errorf("vp %d: nil device service", vp)
					return
				}
				resp := m.Handle(vp, ipc.MallocReq{Size: 64})
				mr, ok := resp.(ipc.MallocResp)
				if !ok {
					t.Errorf("vp %d: malloc failed: %#v", vp, resp)
					return
				}
				m.Handle(vp, ipc.FreeReq{Ptr: mr.Ptr})
				m.DisconnectVP(vp)
			}
		}(vp)
	}
	wg.Wait()
	if n := m.ActiveVPs(); n != 0 {
		t.Fatalf("%d VPs still registered after churn", n)
	}
	// Assignments are sticky across the whole churn.
	for vp := 0; vp < 16; vp++ {
		if _, ok := m.Assignment(vp); !ok {
			t.Fatalf("vp %d lost its assignment", vp)
		}
	}
}

// TestMultiServiceConcurrentServing hammers the full request path — register,
// malloc, H2D, wait, disconnect — from concurrent handlers on both devices,
// the serving-side half of the race regression. Dispatch batching must make
// progress (no handler wedges) and every VP's synchronous copy must succeed.
func TestMultiServiceConcurrentServing(t *testing.T) {
	m, err := NewMultiService(DefaultOptions(), arch.HostGPUs())
	if err != nil {
		t.Fatal(err)
	}
	const vps = 8
	errs := make([]error, vps)
	var wg sync.WaitGroup
	for vp := 0; vp < vps; vp++ {
		wg.Add(1)
		go func(vp int) {
			defer wg.Done()
			defer m.DisconnectVP(vp)
			m.RegisterVP(vp)
			resp := m.Handle(vp, ipc.MallocReq{Size: 4096})
			mr, ok := resp.(ipc.MallocResp)
			if !ok {
				_, errs[vp] = replyErr(resp)
				return
			}
			for i := 0; i < 5; i++ {
				resp = m.Handle(vp, ipc.H2DReq{Stream: 0, Dst: mr.Ptr, Data: make([]byte, 4096)})
				if _, err := replyErr(resp); err != nil {
					errs[vp] = err
					return
				}
			}
		}(vp)
	}
	wg.Wait()
	for vp, err := range errs {
		if err != nil {
			t.Errorf("vp %d: %v", vp, err)
		}
	}
	if m.Sync() <= 0 {
		t.Fatal("no simulated work dispatched")
	}
}
