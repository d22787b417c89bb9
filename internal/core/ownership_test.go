package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// The tests in this file pin who owns the bytes of an H2D and of a launch's
// writable copy. A payload the TCP server read off the socket may become an
// allocation's backing when its job runs; a guest's slice, handed over in
// process, never does; and a writable copy committed by swap must leave every
// simulated result as a copy back would.

// TestGuestSliceIsNeverAdopted: an H2D whose source is the guest's own slice —
// handed to Handle in process, or issued through cudart's in-process back
// end — is copied even when it covers its whole allocation, so the guest may
// reuse the slice at once: a D2H returns the bytes as they were at H2D time.
func TestGuestSliceIsNeverAdopted(t *testing.T) {
	const n = 64 << 10
	m, err := NewMultiService(DefaultOptions(), []arch.GPU{arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, h2d func(p devmem.Ptr, data []byte), d2h func(p devmem.Ptr) []byte, p devmem.Ptr) {
		t.Helper()
		want := fillPattern(n, 3)
		guest := append([]byte(nil), want...)
		h2d(p, guest)
		for i := range guest {
			guest[i] ^= 0xFF
		}
		if got := d2h(p); !bytes.Equal(got, want) {
			t.Fatal("device memory changed with the guest's slice after its H2D")
		}
	}
	t.Run("Handle", func(t *testing.T) {
		call := func(req any) any {
			resp, err := replyErr(m.Handle(1, req))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		p := call(ipc.MallocReq{Size: n}).(ipc.MallocResp).Ptr
		check(t, func(p devmem.Ptr, data []byte) { call(ipc.H2DReq{Dst: p, Data: data}) },
			func(p devmem.Ptr) []byte { return call(ipc.D2HReq{Src: p, N: n}).(ipc.D2HResp).Data }, p)
	})
	t.Run("cudart", func(t *testing.T) {
		ctx := cudart.NewContext(2, m.Backend(2))
		p, err := ctx.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		check(t, func(p devmem.Ptr, data []byte) {
			if err := ctx.MemcpyH2D(p, data); err != nil {
				t.Fatal(err)
			}
		}, func(p devmem.Ptr) []byte {
			got, err := ctx.MemcpyD2H(p, n)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}, p)
	})
	host := m.HostSnapshot()
	if got := host.CounterValue("core.exec.h2d_adopted_bytes"); got != 0 {
		t.Fatalf("in-process H2Ds adopted %d bytes", got)
	}
	if got := host.CounterValue("core.exec.h2d_copied_bytes"); got != 2*n {
		t.Fatalf("in-process H2Ds copied %d bytes, want %d", got, 2*n)
	}
}

// TestFreeRefusesAnotherVPsPointer: a VP names only what it allocated. A
// free of another VP's pointer is refused and leaves the allocation with its
// owner, so the next malloc cannot hand it out again; an H2D, D2H, memset or
// launch binding that names it is refused the same way, so the owner's bytes
// stay its own; and once the owner frees the pointer and another VP's malloc
// gets the address, the owner's stale pointer is refused too — served over
// TCP and through the in-process back end.
func TestFreeRefusesAnotherVPsPointer(t *testing.T) {
	const n = 256
	owned := bytes.Repeat([]byte{0xab}, n)
	theirs := bytes.Repeat([]byte{0x5a}, n)
	newFarm := func(t *testing.T) *MultiService {
		m, err := NewMultiService(DefaultOptions(), []arch.GPU{arch.Quadro4000()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// intrude sends every request that reads or writes device memory through
	// do, naming victim, which the sending VP does not own; own is one of its
	// own buffers. Each must be refused and leave the arena as it was.
	intrude := func(t *testing.T, m *MultiService, do func(req any) error, victim, own devmem.Ptr) {
		t.Helper()
		used := m.Device(0).GPU.Mem.Used()
		for _, req := range []any{
			ipc.H2DReq{Dst: victim, Data: bytes.Repeat([]byte{0xcd}, n)},
			ipc.D2HReq{Src: victim, N: n},
			ipc.MemsetReq{Dst: victim, N: n, Value: 0xcd},
			ipc.LaunchReq{
				Kernel: "vectorAdd", Grid: 1, Block: n / 4,
				Params:   map[string]kpl.Value{"n": kpl.IntVal(n / 4)},
				Bindings: map[string]devmem.Ptr{"a": own, "b": own, "out": victim},
			},
		} {
			if err := do(req); err == nil || !strings.Contains(err.Error(), "does not own") {
				t.Fatalf("%T naming %#x was not refused: err = %v", req, uint64(victim), err)
			}
		}
		if got := m.Device(0).GPU.Mem.Used(); got != used {
			t.Fatalf("refused requests changed Used from %d to %d", used, got)
		}
	}
	t.Run("served", func(t *testing.T) {
		m := newFarm(t)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ipc.ServeEndpoint(l, m)
		defer srv.Shutdown(2e9)
		dial := func(vp int) ipc.Client {
			c, err := ipc.Dial(srv.Addr().String(), vp)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		call := func(c ipc.Client, req any) any {
			resp, err := c.Call(req)
			if err != nil {
				t.Fatalf("%T: %v", req, err)
			}
			return resp
		}
		// One VP is connected at a time, so a request that was not refused
		// would run rather than wait for the other VP to stop.
		do := func(c ipc.Client) func(req any) error {
			return func(req any) error { _, err := c.Call(req); return err }
		}
		c0 := dial(0)
		p := call(c0, ipc.MallocReq{Size: n}).(ipc.MallocResp).Ptr
		call(c0, ipc.H2DReq{Dst: p, Data: owned})
		c0.Close()
		c1 := dial(1)
		if _, err := c1.Call(ipc.FreeReq{Ptr: p}); err == nil || !strings.Contains(err.Error(), "does not own") {
			t.Fatalf("vp 1 freed vp 0's pointer: err = %v", err)
		}
		q := call(c1, ipc.MallocReq{Size: n}).(ipc.MallocResp).Ptr
		if q == p {
			t.Fatal("vp 1 was handed vp 0's live allocation")
		}
		intrude(t, m, do(c1), p, q)
		c1.Close()
		c0 = dial(0)
		if got := call(c0, ipc.D2HReq{Src: p, N: n}).(ipc.D2HResp).Data; !bytes.Equal(got, owned) {
			t.Fatal("vp 0's allocation changed")
		}
		call(c0, ipc.FreeReq{Ptr: p})
		c0.Close()
		c1 = dial(1)
		if r := call(c1, ipc.MallocReq{Size: n}).(ipc.MallocResp).Ptr; r != p {
			t.Fatalf("vp 1's malloc got %#x, not the freed %#x", uint64(r), uint64(p))
		}
		call(c1, ipc.H2DReq{Dst: p, Data: theirs})
		c1.Close()
		c0 = dial(0)
		intrude(t, m, do(c0), p, call(c0, ipc.MallocReq{Size: n}).(ipc.MallocResp).Ptr)
		c0.Close()
		c1 = dial(1)
		defer c1.Close()
		if got := call(c1, ipc.D2HReq{Src: p, N: n}).(ipc.D2HResp).Data; !bytes.Equal(got, theirs) {
			t.Fatal("vp 0's stale pointer reached vp 1's allocation")
		}
	})
	t.Run("backend", func(t *testing.T) {
		m := newFarm(t)
		ctx0, ctx1 := cudart.NewContext(0, m.Backend(0)), cudart.NewContext(1, m.Backend(1))
		do := func(ctx *cudart.Context) func(req any) error {
			return func(req any) error {
				switch r := req.(type) {
				case ipc.H2DReq:
					return ctx.MemcpyH2D(r.Dst, r.Data)
				case ipc.D2HReq:
					_, err := ctx.MemcpyD2H(r.Src, r.N)
					return err
				case ipc.MemsetReq:
					return ctx.Memset(r.Dst, r.N, r.Value)
				case ipc.LaunchReq:
					l, err := launchOf(r)
					if err != nil {
						t.Fatal(err)
					}
					return ctx.LaunchKernel(l)
				}
				t.Fatalf("no back-end call for %T", req)
				return nil
			}
		}
		read := func(ctx *cudart.Context, p devmem.Ptr) []byte {
			got, err := ctx.MemcpyD2H(p, n)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		p, err := ctx0.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx1.Free(p); err == nil || !strings.Contains(err.Error(), "does not own") {
			t.Fatalf("vp 1 freed vp 0's pointer: err = %v", err)
		}
		q, err := ctx1.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx0.MemcpyH2D(p, owned); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(read(ctx1, q), owned) {
			t.Fatal("vp 0's H2D landed in vp 1's buffer")
		}
		intrude(t, m, do(ctx1), p, q)
		if !bytes.Equal(read(ctx0, p), owned) {
			t.Fatal("vp 0's allocation changed")
		}
		if err := ctx0.Free(p); err != nil {
			t.Fatal(err)
		}
		r, err := ctx1.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if r != p {
			t.Fatalf("vp 1's malloc got %#x, not the freed %#x", uint64(r), uint64(p))
		}
		if err := ctx1.MemcpyH2D(r, theirs); err != nil {
			t.Fatal(err)
		}
		own, err := ctx0.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		intrude(t, m, do(ctx0), p, own)
		if !bytes.Equal(read(ctx1, r), theirs) {
			t.Fatal("vp 0's stale pointer reached vp 1's allocation")
		}
	})
}

// ownershipScript is one VP's session on a two-device farm: whole and partial
// H2Ds, a memset, vectorAdd launches (one whose writable "out" is also bound
// as its read-only "a"), D2Hs, a checkpoint restored into a fresh farm and a
// migration. do sends a request and returns the reply; restore replaces the
// farm with one restored from a checkpoint image. It returns every D2H's
// bytes in order.
func ownershipScript(t *testing.T, do func(req any) any, restore func(image []byte)) [][]byte {
	t.Helper()
	const elems = 16 << 10
	const n = 4 * elems
	f32s := func(seed float32) []byte {
		v := make([]float32, elems)
		for i := range v {
			v[i] = seed + float32(i%977)*0.25
		}
		return devmem.EncodeF32(v)
	}
	malloc := func() devmem.Ptr { return do(ipc.MallocReq{Size: n}).(ipc.MallocResp).Ptr }
	var reads [][]byte
	d2h := func(p devmem.Ptr, off, size int) {
		reads = append(reads, do(ipc.D2HReq{Src: p, Off: off, N: size}).(ipc.D2HResp).Data)
	}
	add := func(a, b, out devmem.Ptr) {
		do(ipc.LaunchReq{
			Kernel: "vectorAdd", Grid: elems / 256, Block: 256,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(elems)},
			Bindings: map[string]devmem.Ptr{"a": a, "b": b, "out": out},
		})
	}
	a, b, c, out := malloc(), malloc(), malloc(), malloc()
	do(ipc.H2DReq{Dst: a, Data: f32s(1)})
	do(ipc.H2DReq{Dst: b, Data: f32s(2)})
	do(ipc.H2DReq{Dst: c, Off: 64, Data: f32s(3)[:n-64]})
	do(ipc.MemsetReq{Dst: c, N: 64, Value: 0x3F})
	add(a, b, out)
	d2h(out, 0, n)
	add(out, c, out) // out = out + c, "out" aliasing "a"
	d2h(out, 0, n)
	d2h(c, 0, n)
	do(ipc.H2DReq{Dst: b, Data: f32s(4)})
	do(ipc.H2DReq{Dst: a, Off: 4, Data: f32s(5)[:64]})
	add(a, b, c)
	d2h(c, 0, n)
	restore(do(ipc.CheckpointReq{}).(ipc.CheckpointResp).Data)
	d2h(out, 0, n)
	do(ipc.MigrateReq{VP: 1, Target: 1})
	do(ipc.H2DReq{Dst: a, Data: f32s(6)})
	add(a, c, out)
	d2h(out, 100, n-200)
	d2h(a, 0, n)
	return reads
}

// TestServedAdoptionMatchesCopies runs ownershipScript served over TCP, where
// whole-allocation H2Ds adopt the payload the server read, and on an
// in-process farm, which only ever copies: every D2H byte must agree.
func TestServedAdoptionMatchesCopies(t *testing.T) {
	gpus := []arch.GPU{arch.Quadro4000(), arch.Quadro4000()}
	newFarm := func(image []byte) *MultiService {
		t.Helper()
		m, err := NewMultiService(DefaultOptions(), gpus)
		if err != nil {
			t.Fatal(err)
		}
		if image != nil {
			ck, err := DecodeCheckpoint(image)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Restore(ck); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	m := newFarm(nil)
	local := ownershipScript(t, func(req any) any {
		resp, err := replyErr(m.Handle(1, req))
		if err != nil {
			t.Fatalf("in process: %T: %v", req, err)
		}
		return resp
	}, func(image []byte) { m = newFarm(image) })

	var adopted int64
	serve := func(m *MultiService) (*ipc.Server, ipc.Client) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ipc.ServeEndpoint(l, m)
		c, err := ipc.Dial(srv.Addr().String(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return srv, c
	}
	sm := newFarm(nil)
	srv, c := serve(sm)
	stop := func() {
		c.Close()
		if err := srv.Shutdown(2e9); err != nil {
			t.Fatal(err)
		}
		adopted += sm.HostSnapshot().CounterValue("core.exec.h2d_adopted_bytes")
	}
	served := ownershipScript(t, func(req any) any {
		resp, err := c.Call(req)
		if err != nil {
			t.Fatalf("served: %T: %v", req, err)
		}
		return resp
	}, func(image []byte) {
		stop()
		sm = newFarm(image)
		srv, c = serve(sm)
	})
	stop()

	if len(served) != len(local) {
		t.Fatalf("%d served reads, %d in process", len(served), len(local))
	}
	for i := range local {
		if !bytes.Equal(served[i], local[i]) {
			t.Errorf("read %d: served bytes differ from the in-process farm's", i)
		}
	}
	if got := m.HostSnapshot().CounterValue("core.exec.h2d_adopted_bytes"); got != 0 {
		t.Errorf("the in-process farm adopted %d bytes", got)
	}
	if adopted == 0 {
		t.Error("the served farm adopted no payload: the script did not reach the path it compares")
	}
}

// TestEmulAliasedWritableDynamicProfile runs launches with native code and a
// data-dependent loop — emul measures λ on the post-launch env, since a native
// counts nothing — whose writable binding shares an allocation with another
// binding. binomialOptions runs with "out" on its read-only "spot" and with
// two writables on one allocation ("out" on "ws"); a probe kernel loops
// cnt[t] times and its native writes 2·cnt[t] into "out", bound onto "cnt".
// An aliased copy is copied back, not swapped in, so the env's view of "cnt"
// reads the doubled counts after the launch, as device memory holds them; a
// swap would leave the view on the displaced bytes and halve λ. The device
// bytes and σ are pinned to what the engine produced when every writable copy
// was copied back.
func TestEmulAliasedWritableDynamicProfile(t *testing.T) {
	d := emul.New(arch.ARMVersatile(), 64<<20)
	h := sha256.New()
	run := func(l *hostgpu.Launch, ptrs map[string]devmem.Ptr, sizes map[string]int) {
		t.Helper()
		prof, _, err := d.Launch(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range prof.Sigma {
			binary.Write(h, binary.LittleEndian, math.Float64bits(s))
		}
		for _, decl := range l.Kernel.Bufs {
			got, _, err := d.CopyD2H(ptrs[decl.Name], 0, sizes[decl.Name])
			if err != nil {
				t.Fatal(err)
			}
			h.Write(got)
		}
	}
	alloc := func(size int, in []byte) devmem.Ptr {
		t.Helper()
		p, err := d.Mem.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if in != nil {
			if _, err := d.CopyH2D(p, 0, in); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	aliasedLaunch := func(l *hostgpu.Launch, ptrs map[string]devmem.Ptr, writable, onto string) *hostgpu.Launch {
		l.Bindings = map[string]devmem.Ptr{}
		for name, p := range ptrs {
			l.Bindings[name] = p
		}
		l.Bindings[writable] = ptrs[onto]
		return l
	}

	b, err := kernels.Get("binomialOptions")
	if err != nil {
		t.Fatal(err)
	}
	w := b.MakeWorkload(1)
	ptrs := map[string]devmem.Ptr{}
	for _, decl := range b.Kernel.Bufs {
		ptrs[decl.Name] = alloc(w.BufBytes[decl.Name], w.Inputs[decl.Name])
	}
	run(aliasedLaunch(b.NewLaunch(w), ptrs, "out", "spot"), ptrs, w.BufBytes)
	run(aliasedLaunch(b.NewLaunch(w), ptrs, "out", "ws"), ptrs, w.BufBytes)

	probe := &kpl.Kernel{
		Name:   "aliasProbe",
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "cnt", Elem: kpl.I32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			kpl.Let("s", kpl.CI(0)),
			kpl.For("trips", "i", kpl.CI(0), kpl.Load("cnt", kpl.TID()),
				kpl.Let("s", kpl.Add(kpl.V("s"), kpl.CI(1)))),
			kpl.Store("out", kpl.TID(), kpl.Add(kpl.V("s"), kpl.V("s"))),
		},
	}
	prog, err := kir.Analyze(probe)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 256
	cnt := make([]int32, threads)
	for i := range cnt {
		cnt[i] = int32(i % 7)
	}
	sizes := map[string]int{"cnt": 4 * threads, "out": 4 * threads}
	ptrs = map[string]devmem.Ptr{"cnt": alloc(sizes["cnt"], devmem.EncodeI32(cnt)), "out": alloc(sizes["out"], nil)}
	run(aliasedLaunch(&hostgpu.Launch{
		Kernel: probe, Prog: prog, Grid: 1, Block: threads,
		Params: map[string]kpl.Value{"n": kpl.IntVal(threads)},
		Native: func(env *kpl.Env) error {
			c, out := env.Bufs["cnt"].I32s, env.Bufs["out"].I32s
			for t := range out {
				out[t] = 2 * c[t]
			}
			return nil
		},
	}, ptrs, "out", "cnt"), ptrs, sizes)

	const want = "84750abccc09c37b14f33e3d153e6ad23750e7ab0712fd5c056aff2160a63826"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("bytes and σ digest %s, want %s", got, want)
	}
}
