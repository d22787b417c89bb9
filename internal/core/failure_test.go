package core

import (
	"net"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/sched"
)

// Failure-injection tests: the stack must surface errors at the right layer
// without wedging the service or losing other VPs' work.

func TestOOMPropagatesThroughBackend(t *testing.T) {
	opts := DefaultOptions()
	opts.MemBytes = 1024
	m, _ := farmOfOne(t, opts)
	b := m.Backend(0)
	if _, err := b.Malloc(512); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Malloc(4096); err == nil {
		t.Fatal("over-capacity malloc accepted")
	}
	// The service still works after the failure.
	if _, err := b.Malloc(256); err != nil {
		t.Fatalf("service wedged after OOM: %v", err)
	}
}

// TestKernelErrorPropagatesToVP injects an out-of-bounds kernel through the
// full service path: the VP's synchronous wait must return the error, and a
// healthy VP sharing the service must be unaffected.
func TestKernelErrorPropagatesToVP(t *testing.T) {
	m, s := farmOfOne(t, DefaultOptions())
	s.RegisterVP(0)
	s.RegisterVP(1)
	defer s.UnregisterVP(1)

	bad := &kpl.Kernel{
		Name: "oobWriter",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{kpl.Store("out", kpl.CI(1<<20), kpl.CF(1))},
	}
	prog := mustAnalyze(t, bad)
	ctx0 := cudart.NewContext(0, m.Backend(0))
	ptr, err := ctx0.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	launchErr := make(chan error, 1)
	go func() {
		launchErr <- ctx0.LaunchKernel(&hostgpu.Launch{
			Kernel: bad, Prog: prog, Grid: 1, Block: 1,
			Bindings: map[string]devmem.Ptr{"out": ptr},
		})
	}()

	// A healthy VP does real work at the same time.
	ctx1 := cudart.NewContext(1, m.Backend(1))
	good, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() devmem.Ptr {
		p, err := ctx1.Malloc(4 * 64)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	gl := &hostgpu.Launch{
		Kernel: good.Kernel, Prog: good.Prog, Grid: 1, Block: 64,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(64)},
		Bindings: map[string]devmem.Ptr{"a": mk(), "b": mk(), "out": mk()},
		Native:   good.Native,
	}
	if err := ctx1.LaunchKernel(gl); err != nil {
		t.Fatalf("healthy VP failed: %v", err)
	}
	s.UnregisterVP(0)
	if err := <-launchErr; err == nil {
		t.Fatal("out-of-bounds kernel did not error")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestMergedFailureFinishesMembers: when a coalesced launch fails, every
// member job must be finished with the error rather than leaving VPs
// blocked forever.
func TestMergedFailureFinishesMembers(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<24)
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	var members []*sched.Job
	for vpID := 0; vpID < 2; vpID++ {
		bind := map[string]devmem.Ptr{}
		for _, name := range []string{"a", "b", "out"} {
			ptr, err := g.Mem.Alloc(4 * 64)
			if err != nil {
				t.Fatal(err)
			}
			bind[name] = ptr
		}
		l := &hostgpu.Launch{
			Kernel: bench.Kernel, Prog: bench.Prog, Grid: 1, Block: 64,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(64)},
			Bindings: bind,
			Native:   bench.Native,
		}
		j := sched.NewKernel(vpID, vpID, l)
		j.Coalescable = true
		members = append(members, j)
	}
	// Sabotage one member: free its input allocation.
	if err := g.Mem.Free(members[1].Launch.Bindings["a"]); err != nil {
		t.Fatal(err)
	}
	merged := coalesce.Merge(g, members)
	if err := merged.Run(g); err == nil {
		t.Fatal("merged launch with freed binding should fail")
	}
	for i, m := range members {
		if err := m.Wait(); err == nil {
			t.Fatalf("member %d not finished with error", i)
		}
	}
}

// TestIPCClientDisconnect: a VP's TCP connection dying must not take down
// the server or other VPs.
func TestIPCClientDisconnect(t *testing.T) {
	m, _ := farmOfOne(t, DefaultOptions())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.Serve(l, m.Handle)
	defer srv.Close()

	c1, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ipc.Dial(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Call(ipc.MallocReq{Size: 64}); err != nil {
		t.Fatal(err)
	}
	// VP 1 dies abruptly.
	c1.Close()
	// VP 2 keeps working.
	for i := 0; i < 5; i++ {
		if _, err := c2.Call(ipc.MallocReq{Size: 64}); err != nil {
			t.Fatalf("surviving VP failed after peer disconnect: %v", err)
		}
	}
}

// TestServiceBadLaunchShape: malformed launch requests error cleanly over
// the wire.
func TestServiceBadLaunchShape(t *testing.T) {
	m, _ := farmOfOne(t, DefaultOptions())
	resp := m.Handle(0, ipc.LaunchReq{Kernel: "vectorAdd", Grid: 0, Block: 0})
	if _, ok := resp.(ipc.ErrResp); !ok {
		t.Fatalf("zero-shape launch returned %T", resp)
	}
}

func mustAnalyze(t *testing.T, k *kpl.Kernel) *kir.Program {
	t.Helper()
	p, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
