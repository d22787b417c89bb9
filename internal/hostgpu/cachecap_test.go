package hostgpu_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// TestTimingCacheBounded: the timing key holds the declared parameters'
// values, so a served guest that varies a scalar — BlackScholes' rate r here,
// over distinct float32 values — prices a new launch every time. A device's
// cache must stay within its cap however long that goes on.
func TestTimingCacheBounded(t *testing.T) {
	const launches = 100_000
	opts := core.DefaultOptions()
	opts.Mode = hostgpu.ExecTimingOnly
	m, err := core.NewMultiService(opts, []arch.GPU{arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	const vp = 1
	m.RegisterVP(vp)
	b := kernels.BlackScholes
	w := b.MakeWorkload(1)
	bind := map[string]devmem.Ptr{}
	for name, size := range w.BufBytes {
		resp, ok := m.Handle(vp, ipc.MallocReq{Size: size}).(ipc.MallocResp)
		if !ok {
			t.Fatal("malloc refused")
		}
		bind[name] = resp.Ptr
	}
	for i := 0; i < launches; i++ {
		params := map[string]kpl.Value{"n": w.Params["n"], "vol": w.Params["vol"], "r": kpl.F32Val(float64(i) / 1024)}
		req := ipc.LaunchReq{Kernel: b.Name, Grid: w.Grid, Block: w.Block, Bindings: bind, Params: params}
		if resp := m.Handle(vp, req); !isOK(resp) {
			t.Fatalf("launch %d: %#v", i, resp)
		}
	}
	g := m.Device(0).GPU
	if misses := g.Metrics.Counter("hostgpu.timing_cache.misses").Value(); misses < launches {
		t.Fatalf("%d launches missed the timing cache %d times: the rate did not reach the key", launches, misses)
	}
	if got := g.TimingCacheLen(); got > hostgpu.TimingCacheCap {
		t.Errorf("%d distinct launches left %d timing-cache entries, want at most %d", launches, got, hostgpu.TimingCacheCap)
	}
}

func isOK(resp any) bool {
	_, ok := resp.(ipc.OKResp)
	return ok
}
