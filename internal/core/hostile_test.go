package core

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"testing"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// TestHostileRangeArguments sends every out-of-range offset and length a
// guest can put in an H2D, D2H or memset through the front door of a
// pipelined one-device farm with admission on, on a full and on a timing-only
// device. Each request must be answered with an error — not by a panic on the
// device's executor goroutine, which nothing recovers — leave the device bytes
// and the admission reservations as they were, and leave the service serving.
func TestHostileRangeArguments(t *testing.T) {
	const vp, size = 1, 64
	hostile := []int{-1, math.MinInt, math.MaxInt, size, size + 1}
	for _, mode := range []hostgpu.ExecMode{hostgpu.ExecFull, hostgpu.ExecTimingOnly} {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.Admission = AdmissionOptions{MaxQueuedJobs: 4}
		farm, dev := farmOfOne(t, opts)
		defer farm.Close()
		farm.RegisterVP(vp)
		p := mallocVP(t, farm, vp, size).Ptr
		if _, ok := farm.Handle(vp, ipc.H2DReq{Dst: p, Data: bytes.Repeat([]byte{0xA5}, size)}).(ipc.OKResp); !ok {
			t.Fatalf("mode %d: well-formed H2D refused", mode)
		}
		want, err := dev.GPU.Mem.Read(p, 0, size)
		if err != nil {
			t.Fatal(err)
		}

		var reqs []any
		for _, off := range hostile {
			reqs = append(reqs, ipc.H2DReq{Dst: p, Off: off, Data: []byte{1}})
			for _, n := range hostile {
				reqs = append(reqs,
					ipc.D2HReq{Src: p, Off: off, N: n},
					ipc.MemsetReq{Dst: p, Off: off, N: n, Value: 0xEE})
			}
		}
		for _, req := range reqs {
			name := fmt.Sprintf("mode %d: %+v", mode, req)
			if resp, ok := farm.Handle(vp, req).(ipc.ErrResp); !ok {
				t.Fatalf("%s: answered %T, want ErrResp", name, resp)
			}
			if got, err := dev.GPU.Mem.Read(p, 0, size); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: device bytes changed (err %v)", name, err)
			}
			if jobs, held := dev.AdmissionLoad(); jobs != 0 || held != 0 {
				t.Fatalf("%s: admission still holds %d jobs, %d bytes", name, jobs, held)
			}
		}
		resp := farm.Handle(vp, ipc.D2HReq{Src: p, N: size})
		if d2h, ok := resp.(ipc.D2HResp); !ok || (mode == hostgpu.ExecFull && !bytes.Equal(d2h.Data, want)) {
			t.Fatalf("mode %d: well-formed D2H after the hostile ones answered %#v", mode, resp)
		}
	}
}

// TestHostileH2DOverTCP: the frame that used to kill the daemon — an H2D whose
// offset makes off+len wrap — is an error reply on the wire, and the server
// keeps serving the connection that sent it.
func TestHostileH2DOverTCP(t *testing.T) {
	farm, _ := farmOfOne(t, DefaultOptions())
	defer farm.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, farm)
	defer srv.Close()
	c, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := ipc.ReplyAs[ipc.MallocResp](c.Call(ipc.MallocReq{Size: 8}))
	if err != nil {
		t.Fatal(err)
	}
	tc := ipc.Typed(c)
	if _, err := tc.CallH2D(ipc.H2DReq{Dst: m.Ptr, Off: math.MaxInt, Data: []byte{1}}); err == nil || ipc.IsRetryable(err) {
		t.Fatalf("hostile H2D: err %v, want the server's error reply", err)
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := tc.CallH2D(ipc.H2DReq{Dst: m.Ptr, Data: payload}); err != nil {
		t.Fatalf("H2D after the hostile one: %v", err)
	}
	if d2h, err := tc.CallD2H(ipc.D2HReq{Src: m.Ptr, N: len(payload)}); err != nil || !bytes.Equal(d2h.Data, payload) {
		t.Fatalf("D2H after the hostile one: %x, err %v", d2h.Data, err)
	}
}

// launchOver asks b to do its scale-1 work — with params in place of the
// workload's own when non-nil — over ptrs, each declared buffer bound to the
// next of them.
func launchOver(b *kernels.Benchmark, params map[string]kpl.Value, ptrs []devmem.Ptr) ipc.LaunchReq {
	w := b.MakeWorkload(1)
	if params == nil {
		params = w.Params
	}
	req := ipc.LaunchReq{Kernel: b.Name, Grid: w.Grid, Block: w.Block, Params: params, Bindings: map[string]devmem.Ptr{}}
	for i, decl := range b.Kernel.Bufs {
		req.Bindings[decl.Name] = ptrs[i]
	}
	return req
}

// hostileLaunches is every registry kernel that has a native over the 8-byte
// allocations ptrs, plus matrixMul with negative and MaxInt32 dimensions:
// launches whose parameters describe more than their buffers hold, which the
// native — it indexes unchecked — can only fault on. (A negative m is not
// among them: it describes no rows, so no work, in the kernel body and in the
// native alike.)
func hostileLaunches(ptrs []devmem.Ptr) []ipc.LaunchReq {
	var reqs []ipc.LaunchReq
	for _, b := range kernels.All() {
		if b.Native != nil {
			reqs = append(reqs, launchOver(b, nil, ptrs))
		}
	}
	for _, dims := range [][3]int64{
		{16, -64, 64}, {16, 64, -64}, {16, -64, -64},
		{math.MaxInt32, 64, 64}, {16, math.MaxInt32, 64}, {16, 64, math.MaxInt32},
		{math.MaxInt32, math.MaxInt32, math.MaxInt32},
	} {
		reqs = append(reqs, launchOver(kernels.MatrixMul, map[string]kpl.Value{
			"m": kpl.IntVal(dims[0]), "n": kpl.IntVal(dims[1]), "k": kpl.IntVal(dims[2]),
		}, ptrs))
	}
	return reqs
}

func isErrResp(resp any) bool {
	_, ok := resp.(ipc.ErrResp)
	return ok
}

// hostilePtrs allocates, through call, one 8-byte allocation per buffer of the
// registry's widest kernel and fills each with a pattern.
func hostilePtrs(t *testing.T, call func(req any) any) []devmem.Ptr {
	t.Helper()
	widest := 0
	for _, b := range kernels.All() {
		widest = max(widest, len(b.Kernel.Bufs))
	}
	ptrs := make([]devmem.Ptr, widest)
	for i := range ptrs {
		m, ok := call(ipc.MallocReq{Size: 8}).(ipc.MallocResp)
		if !ok {
			t.Fatal("malloc refused")
		}
		ptrs[i] = m.Ptr
		if _, ok := call(ipc.H2DReq{Dst: m.Ptr, Data: bytes.Repeat([]byte{0xA5 ^ byte(i)}, 8)}).(ipc.OKResp); !ok {
			t.Fatal("well-formed H2D refused")
		}
	}
	return ptrs
}

// wellFormedMatMul runs matrixMul's scale-1 workload through call — malloc,
// H2D, launch, D2H — and requires the reference's bytes back.
func wellFormedMatMul(t *testing.T, call func(req any) any) {
	t.Helper()
	b := kernels.MatrixMul
	w := b.MakeWorkload(1)
	ref, err := kernels.BuildEnv(b, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Native(ref); err != nil {
		t.Fatal(err)
	}
	req := ipc.LaunchReq{Kernel: b.Name, Grid: w.Grid, Block: w.Block, Params: w.Params, Bindings: map[string]devmem.Ptr{}}
	for name, size := range w.BufBytes {
		m, ok := call(ipc.MallocReq{Size: size}).(ipc.MallocResp)
		if !ok {
			t.Fatal("malloc refused")
		}
		req.Bindings[name] = m.Ptr
		if in, ok := w.Inputs[name]; ok {
			if _, ok := call(ipc.H2DReq{Dst: m.Ptr, Data: in}).(ipc.OKResp); !ok {
				t.Fatalf("well-formed H2D of %s refused", name)
			}
		}
	}
	if resp := call(req); isErrResp(resp) {
		t.Fatalf("well-formed launch after the hostile ones answered %#v", resp)
	}
	d2h, ok := call(ipc.D2HReq{Src: req.Bindings["c"], N: w.BufBytes["c"]}).(ipc.D2HResp)
	if !ok || !bytes.Equal(d2h.Data, devmem.EncodeF64(ref.Bufs["c"].F64s)) {
		t.Fatal("well-formed launch after the hostile ones computed the wrong c")
	}
}

// TestHostileLaunchOverNative: a launch whose parameters describe more work
// than its bindings hold faults inside the kernel's native, on the device's
// executor goroutine. Through the front door of a pipelined one-device farm
// with admission on, each must be answered with an error, leave the device
// bytes and the admission reservations as they were, and leave the service
// computing correct results.
func TestHostileLaunchOverNative(t *testing.T) {
	const vp = 1
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedJobs: 4}
	farm, dev := farmOfOne(t, opts)
	defer farm.Close()
	farm.RegisterVP(vp)
	call := func(req any) any { return farm.Handle(vp, req) }
	ptrs := hostilePtrs(t, call)
	snapshot := func() (out []byte) {
		for _, p := range ptrs {
			b, err := dev.GPU.Mem.Read(p, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	want := snapshot()
	for _, req := range hostileLaunches(ptrs) {
		name := fmt.Sprintf("%s %v", req.Kernel, req.Params)
		if resp := call(req); !isErrResp(resp) {
			t.Fatalf("%s: answered %#v, want ErrResp", name, resp)
		}
		if !bytes.Equal(snapshot(), want) {
			t.Fatalf("%s: device bytes changed", name)
		}
		if jobs, held := dev.AdmissionLoad(); jobs != 0 || held != 0 {
			t.Fatalf("%s: admission still holds %d jobs, %d bytes", name, jobs, held)
		}
	}
	wellFormedMatMul(t, call)
}

// TestHostileLaunchOverTCP: the launch that used to kill the daemon is an
// error reply on the wire, and the server keeps serving the connection that
// sent it.
func TestHostileLaunchOverTCP(t *testing.T) {
	farm, _ := farmOfOne(t, DefaultOptions())
	defer farm.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, farm)
	defer srv.Close()
	c, err := ipc.Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func(req any) any {
		resp, err := c.Call(req)
		if err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		return resp
	}
	_, err = c.Call(launchOver(kernels.MatrixMul, nil, hostilePtrs(t, call)))
	if err == nil || ipc.IsRetryable(err) {
		t.Fatalf("hostile launch: err %v, want the server's error reply", err)
	}
	wellFormedMatMul(t, call)
}
