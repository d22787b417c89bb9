package cudart

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// newEmulCtx builds a context over the emulation back end.
func newEmulCtx(t *testing.T) *Context {
	t.Helper()
	d := emul.New(arch.HostXeon(), 1<<24)
	return NewContext(0, NewEmulBackend(d))
}

// vecAddLaunch provisions vectorAdd on the context.
func vecAddLaunch(t *testing.T, ctx *Context, n int) (*hostgpu.Launch, devmem.Ptr) {
	t.Helper()
	b, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(fill float32) devmem.Ptr {
		p, err := ctx.Malloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = fill * float32(i)
		}
		if err := ctx.MemcpyH2D(p, devmem.EncodeF32(vals)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	l := &hostgpu.Launch{
		Kernel: b.Kernel, Prog: b.Prog,
		Grid: (n + 255) / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
		Bindings: map[string]devmem.Ptr{"a": alloc(1), "b": alloc(2), "out": alloc(0)},
		Native:   b.Native,
	}
	return l, l.Bindings["out"]
}

func TestSyncAPIOnEmulBackend(t *testing.T) {
	ctx := newEmulCtx(t)
	defer ctx.Close()
	const n = 300
	l, out := vecAddLaunch(t, ctx, n)
	if err := ctx.LaunchKernel(l); err != nil {
		t.Fatal(err)
	}
	raw, err := ctx.MemcpyD2H(out, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range devmem.DecodeF32(raw) {
		if v != 3*float32(i) {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

func TestAsyncAPIAndStreamSync(t *testing.T) {
	ctx := newEmulCtx(t)
	defer ctx.Close()
	const n = 256
	l, out := vecAddLaunch(t, ctx, n)
	if err := ctx.LaunchKernelAsync(2, l); err != nil {
		t.Fatal(err)
	}
	tok, err := ctx.MemcpyD2HAsync(2, out, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamSynchronize(2); err != nil {
		t.Fatal(err)
	}
	if got := devmem.DecodeF32(tok.Bytes()); got[10] != 30 {
		t.Fatalf("async result wrong: %v", got[10])
	}
	// Stream is drained after synchronize.
	if err := ctx.StreamSynchronize(2); err != nil {
		t.Fatal(err)
	}
	if err := ctx.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
}

func TestMallocFree(t *testing.T) {
	ctx := newEmulCtx(t)
	p, err := ctx.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(p); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestRemoteBackendOverPipe(t *testing.T) {
	// The pipe client routes straight to a handler that emulates a trivial
	// service over an emul device.
	d := emul.New(arch.HostXeon(), 1<<24)
	handler := func(vp int, req any) any {
		switch r := req.(type) {
		case ipc.MallocReq:
			p, err := d.Mem.Alloc(r.Size)
			if err != nil {
				return ipc.ErrResp{Msg: err.Error()}
			}
			return ipc.MallocResp{Ptr: p}
		case ipc.FreeReq:
			if err := d.Mem.Free(r.Ptr); err != nil {
				return ipc.ErrResp{Msg: err.Error()}
			}
			return ipc.OKResp{}
		case ipc.H2DReq:
			iv, err := d.CopyH2D(r.Dst, r.Off, r.Data)
			if err != nil {
				return ipc.ErrResp{Msg: err.Error()}
			}
			return ipc.OKResp{End: iv.End}
		case ipc.D2HReq:
			data, iv, err := d.CopyD2H(r.Src, r.Off, r.N)
			if err != nil {
				return ipc.ErrResp{Msg: err.Error()}
			}
			return ipc.D2HResp{Data: data, End: iv.End}
		case ipc.LaunchReq:
			b, err := kernels.Get(r.Kernel)
			if err != nil {
				return ipc.ErrResp{Msg: err.Error()}
			}
			_, iv, err := d.Launch(&hostgpu.Launch{
				Kernel: b.Kernel, Prog: b.Prog,
				Grid: r.Grid, Block: r.Block,
				Params: r.Params, Bindings: r.Bindings,
				Native: b.Native,
			})
			if err != nil {
				return ipc.ErrResp{Msg: err.Error()}
			}
			return ipc.OKResp{End: iv.End}
		}
		return ipc.ErrResp{Msg: "unknown"}
	}
	ctx := NewContext(1, NewRemoteBackend(ipc.Pipe(1, handler)))
	defer ctx.Close()

	const n = 128
	l, out := vecAddLaunch(t, ctx, n)
	if err := ctx.LaunchKernel(l); err != nil {
		t.Fatal(err)
	}
	raw, err := ctx.MemcpyD2H(out, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if devmem.DecodeF32(raw)[5] != 15 {
		t.Fatal("remote result wrong")
	}
	if err := ctx.Free(out); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWrongKindReply: a server (or a corrupted frame that still decodes)
// answering every request with OKResp is a wire error where another reply kind
// was due — malloc, D2H — never a failed type assertion in the guest.
func TestRemoteWrongKindReply(t *testing.T) {
	ctx := NewContext(1, NewRemoteBackend(ipc.Pipe(1, func(int, any) any { return ipc.OKResp{End: 1} })))
	if _, err := ctx.Malloc(64); !errors.Is(err, ipc.ErrMalformedFrame) {
		t.Fatalf("Malloc answered with OKResp: err %v, want a malformed-frame error", err)
	}
	if _, err := ctx.MemcpyD2H(0x100, 4); !errors.Is(err, ipc.ErrMalformedFrame) {
		t.Fatalf("D2H answered with OKResp: err %v, want a malformed-frame error", err)
	}
	if err := ctx.MemcpyH2D(0x100, []byte{1}); err != nil {
		t.Fatalf("H2D answered with OKResp: %v", err)
	}
}

func TestMemsetThroughBackends(t *testing.T) {
	// Emulation back end.
	ctx := newEmulCtx(t)
	defer ctx.Close()
	p, err := ctx.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Memset(p, 64, 0xAB); err != nil {
		t.Fatal(err)
	}
	raw, err := ctx.MemcpyD2H(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range raw {
		if b != 0xAB {
			t.Fatalf("memset byte %x", b)
		}
	}
	// Async variant.
	if err := ctx.MemsetAsync(1, p, 64, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamSynchronize(1); err != nil {
		t.Fatal(err)
	}
	raw, _ = ctx.MemcpyD2H(p, 64)
	for _, b := range raw {
		if b != 0 {
			t.Fatalf("async memset byte %x", b)
		}
	}
}
