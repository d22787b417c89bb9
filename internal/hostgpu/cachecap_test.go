package hostgpu_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kpl"
)

// TestTimingCacheBounded: the timing key holds whatever parameters a guest
// sends, so a served guest that varies a parameter the kernel does not
// declare prices a new launch every time. A device's cache must stay within
// its cap however long that goes on.
func TestTimingCacheBounded(t *testing.T) {
	const n, launches = 64, 100_000
	m, err := core.NewMultiService(core.DefaultOptions(), []arch.GPU{arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const vp = 1
	m.RegisterVP(vp)
	bind := map[string]devmem.Ptr{}
	for _, name := range []string{"a", "b", "out"} {
		resp, ok := m.Handle(vp, ipc.MallocReq{Size: 4 * n}).(ipc.MallocResp)
		if !ok {
			t.Fatal("malloc refused")
		}
		bind[name] = resp.Ptr
	}
	for i := 0; i < launches; i++ {
		req := ipc.LaunchReq{
			Kernel: "vectorAdd", Grid: 1, Block: n, Bindings: bind,
			Params: map[string]kpl.Value{"n": kpl.IntVal(n), "iteration": kpl.IntVal(int64(i))},
		}
		if resp, ok := m.Handle(vp, req).(ipc.OKResp); !ok {
			t.Fatalf("launch %d: %#v", i, resp)
		}
	}
	if got := m.Device(0).GPU.TimingCacheLen(); got > hostgpu.TimingCacheCap {
		t.Errorf("%d distinct launches left %d timing-cache entries, want at most %d", launches, got, hostgpu.TimingCacheCap)
	}
}
