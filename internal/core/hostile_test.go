package core

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"testing"

	"repro/internal/hostgpu"
	"repro/internal/ipc"
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
