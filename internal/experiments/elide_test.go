package experiments

import (
	"bytes"
	"fmt"
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

// reuploadApp is one application of the re-uploading guest: its workload,
// its launch over the guest's allocations, and the input bytes it copies in
// every round.
type reuploadApp struct {
	bench  *kernels.Benchmark
	w      *kernels.Workload
	launch *hostgpu.Launch
	inputs map[string][]byte
}

// freshOutputs runs the application once on a fresh device holding inputs
// and returns its output buffers.
func (a *reuploadApp) freshOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	ref := hostgpu.New(arch.Quadro4000(), 1<<28)
	l := a.bench.NewLaunch(a.w)
	l.Bindings = map[string]devmem.Ptr{}
	for _, decl := range a.bench.Kernel.Bufs {
		p, err := ref.Mem.Alloc(a.w.BufBytes[decl.Name])
		if err != nil {
			t.Fatal(err)
		}
		if in, ok := a.inputs[decl.Name]; ok {
			if err := ref.Mem.Write(p, 0, in); err != nil {
				t.Fatal(err)
			}
		}
		l.Bindings[decl.Name] = p
	}
	if _, _, err := ref.Launch(0, l); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range a.w.OutBufs {
		b, err := ref.Mem.Read(l.Bindings[name], 0, a.w.BufBytes[name])
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestServedReuploadElision serves a guest that runs BlackScholes and
// vectorAdd the way the benchmark's wire guests do — every round copies the
// same input bytes in again, launches, and copies the outputs out — on a
// two-device farm, with
// one live migration partway. Re-uploaded inputs equal to what the device
// holds change no generation, so every launch after the first on each device
// is elided; every round's outputs are what a fresh device computes; and a
// round whose re-upload changes one trailing byte runs its launch.
func TestServedReuploadElision(t *testing.T) {
	farm, err := serveFarm(core.DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.close()
	c, err := farm.dial(elisionVP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := cudart.NewContext(elisionVP, cudart.NewRemoteBackend(c))

	var apps []*reuploadApp
	for _, name := range []string{"BlackScholes", "vectorAdd"} {
		bench, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		a := &reuploadApp{bench: bench, w: bench.MakeWorkload(1), inputs: map[string][]byte{}}
		a.launch = bench.NewLaunch(a.w)
		a.launch.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			p, err := ctx.Malloc(a.w.BufBytes[decl.Name])
			if err != nil {
				t.Fatal(err)
			}
			a.launch.Bindings[decl.Name] = p
			if in, ok := a.w.Inputs[decl.Name]; ok {
				a.inputs[decl.Name] = in
			}
		}
		if len(a.inputs) == 0 {
			t.Fatalf("%s has no inputs to copy in", name)
		}
		apps = append(apps, a)
	}
	elided := func() []int64 {
		n := make([]int64, farm.ms.Devices())
		for i := range n {
			n[i] = farm.ms.Device(i).GPU.Elided()
		}
		return n
	}

	// round re-uploads every input, launches each application once and
	// checks its outputs against a fresh device's, then returns how many of
	// the round's launches each device elided.
	round := func(step string) []int64 {
		before := elided()
		for _, a := range apps {
			for _, decl := range a.bench.Kernel.Bufs {
				if in, ok := a.inputs[decl.Name]; ok {
					if err := ctx.MemcpyH2D(a.launch.Bindings[decl.Name], in); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				}
			}
			if err := ctx.LaunchKernel(a.launch); err != nil {
				t.Fatalf("%s: %s: %v", step, a.bench.Name, err)
			}
			want := a.freshOutputs(t)
			for _, name := range a.w.OutBufs {
				got, err := ctx.MemcpyD2H(a.launch.Bindings[name], a.w.BufBytes[name])
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if !bytes.Equal(got, want[name]) {
					t.Errorf("%s: %s's %s differs from a fresh device's", step, a.bench.Name, name)
				}
			}
		}
		after := elided()
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	device := func() int {
		d, ok := farm.ms.Assignment(elisionVP)
		if !ok {
			t.Fatal("the guest is placed nowhere")
		}
		return d
	}
	// expect runs a round and requires the guest's device to elide want of
	// its launches and the other device none.
	expect := func(step string, want int64) {
		t.Helper()
		d := device()
		for i, n := range round(step) {
			w := int64(0)
			if i == d {
				w = want
			}
			if n != w {
				t.Errorf("%s: device %d elided %d launches, want %d", step, i, n, w)
			}
		}
	}

	const rounds = 4
	all := int64(len(apps))
	expect("first round", 0)
	for r := 1; r < rounds; r++ {
		expect(fmt.Sprintf("round %d", r), all)
	}
	if _, err := c.Call(ipc.MigrateReq{VP: elisionVP, Target: 1 - device()}); err != nil {
		t.Fatal(err)
	}
	expect("first round after the migration", 0)
	for r := 1; r < rounds; r++ {
		expect(fmt.Sprintf("round %d after the migration", r), all)
	}

	// One trailing byte of BlackScholes' first input changes, and then
	// changes back: each of those rounds runs BlackScholes again.
	bs := apps[0]
	first := bs.bench.Kernel.Bufs[0].Name
	orig := bs.inputs[first]
	changed := bytes.Clone(orig)
	changed[len(changed)-1] ^= 0x01
	bs.inputs[first] = changed
	expect("a trailing byte changed", all-1)
	bs.inputs[first] = orig
	expect("the trailing byte restored", all-1)
	expect("unchanged again", all)

	if got := farm.ms.HostSnapshot().CounterValue("core.exec.h2d_unchanged_bytes"); got == 0 {
		t.Error("no re-uploaded byte was counted unchanged")
	}
}
