package repro

import (
	"net"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/experiments"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/vp"
)

// benchEcho answers every request from static state: the benchmark measures
// transport cost (encode, frame, syscall, demux), not simulation cost.
func benchEcho(vpID int, req any) any {
	switch r := req.(type) {
	case ipc.MallocReq:
		return ipc.MallocResp{Ptr: devmem.Ptr(r.Size)}
	case ipc.D2HReq:
		return ipc.D2HResp{Data: make([]byte, r.N), End: 1}
	default:
		return ipc.OKResp{End: 1}
	}
}

// BenchmarkIPCRoundtrip measures one guest H2D→launch→D2H cycle over
// loopback TCP, serially (one call in flight) and pipelined (many goroutines
// sharing one connection). allocs/op is the zero-allocation contract.
// BENCH_6.json keeps the figures of the retired gob stream it replaced.
func BenchmarkIPCRoundtrip(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := ipc.Serve(l, benchEcho)
	defer srv.Close()

	payload := make([]byte, 4096)
	launch := ipc.LaunchReq{
		Kernel: "vectorAdd", Grid: 8, Block: 256,
		Bindings: map[string]devmem.Ptr{"a": 0x100, "b": 0x200, "out": 0x300},
	}
	cycle := func(c ipc.Client) error {
		if _, err := c.Call(ipc.H2DReq{Dst: 0x100, Data: payload}); err != nil {
			return err
		}
		if _, err := c.Call(launch); err != nil {
			return err
		}
		_, err := c.Call(ipc.D2HReq{Src: 0x300, N: 64})
		return err
	}

	c, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cycle(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(32)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := cycle(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkRemoteFig11 is the remote-mode cousin of BenchmarkFig11: a fleet
// of VPs drives real guest traffic (H2D → launch → D2H per iteration)
// through the full TCP IPC stack into a live service. It is the end-to-end
// number a wire-protocol optimization is judged on.
func BenchmarkRemoteFig11(b *testing.B) {
	const vps = 4
	const iters = 4
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	farm, err := core.NewMultiService(opts, []arch.GPU{opts.Arch})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, farm)
	defer srv.Close()

	app := func(v *vp.VP) error {
		defer v.Ctx.Close()
		w := bench.MakeWorkload(1)
		launch := bench.NewLaunch(w)
		launch.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			ptr, err := v.Ctx.Malloc(w.BufBytes[decl.Name])
			if err != nil {
				return err
			}
			launch.Bindings[decl.Name] = ptr
		}
		out := bench.Kernel.Bufs[len(bench.Kernel.Bufs)-1].Name
		for it := 0; it < iters; it++ {
			for name, data := range w.Inputs {
				if err := v.Ctx.MemcpyH2D(launch.Bindings[name], data); err != nil {
					return err
				}
			}
			if err := v.Ctx.LaunchKernel(launch); err != nil {
				return err
			}
			if _, err := v.Ctx.MemcpyD2H(launch.Bindings[out], int(w.BufBytes[out])); err != nil {
				return err
			}
		}
		return nil
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet := &vp.Fleet{}
		clients := make([]ipc.Client, vps)
		for id := 0; id < vps; id++ {
			c, err := ipc.Dial(srv.Addr().String(), id)
			if err != nil {
				b.Fatal(err)
			}
			clients[id] = c
			fleet.VPs = append(fleet.VPs,
				vp.New(id, arch.ARMVersatile(), cudart.NewContext(id, cudart.NewRemoteBackend(c))))
		}
		if err := fleet.Run(app); err != nil {
			b.Fatal(err)
		}
		for _, c := range clients {
			c.Close()
		}
	}
	// Keep the harness pool warm-path in scope for -workers parity with the
	// in-process Fig11 benchmark.
	_ = experiments.Workers
}
