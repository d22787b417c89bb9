package experiments

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// elisionGuest is a served matrixMul guest, the shape of the CUDA SDK loop
// coalesce-launch drives: inputs copied once, the kernel launched many times.
type elisionGuest struct {
	t      *testing.T
	farm   *tcpFarm
	client ipc.Client
	ctx    *cudart.Context
	bench  *kernels.Benchmark
	w      *kernels.Workload
	launch *hostgpu.Launch
}

const elisionVP = 1

func (g *elisionGuest) connect(farm *tcpFarm) {
	c, err := farm.dial(elisionVP)
	if err != nil {
		g.t.Fatal(err)
	}
	g.farm, g.client, g.ctx = farm, c, cudart.NewContext(elisionVP, cudart.NewRemoteBackend(c))
}

// elided is how many launches the farm's devices have skipped.
func (g *elisionGuest) elided() int64 {
	var n int64
	for i := 0; i < g.farm.ms.Devices(); i++ {
		n += g.farm.ms.Device(i).GPU.Elided()
	}
	return n
}

// round launches the kernel ten times and requires the output a fresh device
// holding the same bytes computes with one launch, with the first launch run
// and the other nine elided.
func (g *elisionGuest) round(step string) {
	t := g.t
	ref := hostgpu.New(arch.Quadro4000(), 1<<28)
	lr := g.bench.NewLaunch(g.w)
	lr.Bindings = map[string]devmem.Ptr{}
	for _, decl := range g.bench.Kernel.Bufs {
		n := g.w.BufBytes[decl.Name]
		now, err := g.ctx.MemcpyD2H(g.launch.Bindings[decl.Name], n)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		p, err := ref.Mem.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Mem.Write(p, 0, now); err != nil {
			t.Fatal(err)
		}
		lr.Bindings[decl.Name] = p
	}
	if _, _, err := ref.Launch(0, lr); err != nil {
		t.Fatal(err)
	}
	out := g.w.OutBufs[0]
	want, err := ref.Mem.Read(lr.Bindings[out], 0, g.w.BufBytes[out])
	if err != nil {
		t.Fatal(err)
	}

	before := g.elided()
	for i := 0; i < 10; i++ {
		if err := g.ctx.LaunchKernelAsync(0, g.launch); err != nil {
			t.Fatalf("%s: launch %d: %v", step, i, err)
		}
	}
	if err := g.ctx.DeviceSynchronize(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	got, err := g.ctx.MemcpyD2H(g.launch.Bindings[out], g.w.BufBytes[out])
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: the round's output differs from a fresh device's", step)
	}
	if n := g.elided() - before; n != 9 {
		t.Errorf("%s: the round elided %d of its 10 launches, want 9", step, n)
	}
}

// TestServedElisionMatchesFreshDevice serves a matrixMul guest over TCP and,
// after each way device memory or the VP's place can change between two
// rounds of ten launches, requires the round's output to be what a fresh
// device computes from the same bytes.
func TestServedElisionMatchesFreshDevice(t *testing.T) {
	bench, err := kernels.Get("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	g := &elisionGuest{t: t, bench: bench, w: bench.MakeWorkload(1)}
	farm, err := serveFarm(core.DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { g.farm.close() }()
	g.connect(farm)
	defer func() { g.client.Close() }()
	g.launch = bench.NewLaunch(g.w)
	g.launch.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		p, err := g.ctx.Malloc(g.w.BufBytes[decl.Name])
		if err != nil {
			t.Fatal(err)
		}
		if in, ok := g.w.Inputs[decl.Name]; ok {
			if err := g.ctx.MemcpyH2D(p, in); err != nil {
				t.Fatal(err)
			}
		}
		g.launch.Bindings[decl.Name] = p
	}
	out := g.w.OutBufs[0]
	outPtr, outSize := g.launch.Bindings[out], g.w.BufBytes[out]
	input := bench.Kernel.Bufs[0].Name

	g.round("first")
	steps := []struct {
		name   string
		change func()
	}{
		{"one H2D byte into an input", func() {
			if err := g.ctx.MemcpyH2D(g.launch.Bindings[input], []byte{0x3F}); err != nil {
				t.Fatal(err)
			}
		}},
		{"a memset of the output", func() {
			if err := g.ctx.Memset(outPtr, outSize, 0x5A); err != nil {
				t.Fatal(err)
			}
		}},
		{"a different kernel writing the output", func() {
			va, err := kernels.Get("vectorAdd")
			if err != nil {
				t.Fatal(err)
			}
			n := outSize / 4
			l := va.NewLaunch(va.MakeWorkload(1))
			l.Grid, l.Block = (n+255)/256, 256
			l.Params = map[string]kpl.Value{"n": kpl.IntVal(int64(n))}
			l.Bindings = map[string]devmem.Ptr{"out": outPtr}
			for i, name := range []string{"a", "b"} {
				p, err := g.ctx.Malloc(outSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.ctx.Memset(p, outSize, byte(0x21+i)); err != nil {
					t.Fatal(err)
				}
				l.Bindings[name] = p
			}
			if err := g.ctx.LaunchKernel(l); err != nil {
				t.Fatal(err)
			}
		}},
		{"free and reallocate at the same address", func() {
			if err := g.ctx.Free(outPtr); err != nil {
				t.Fatal(err)
			}
			p, err := g.ctx.Malloc(outSize)
			if err != nil {
				t.Fatal(err)
			}
			if p != outPtr {
				t.Fatalf("the output was reallocated at %#x, not at %#x", p, outPtr)
			}
		}},
		{"migration away and back", func() {
			for _, target := range []int{1, 0} {
				if _, err := g.client.Call(ipc.MigrateReq{VP: elisionVP, Target: target}); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"checkpoint restore", func() {
			ck, err := g.farm.ms.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := serveFarm(core.DefaultOptions(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.ms.Restore(ck); err != nil {
				fresh.close()
				t.Fatal(err)
			}
			g.client.Close()
			g.farm.close()
			g.connect(fresh)
		}},
	}
	for _, s := range steps {
		s.change()
		g.round(s.name)
	}
}
