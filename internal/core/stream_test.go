package core

import (
	"strings"
	"testing"

	"repro/internal/devmem"
	"repro/internal/ipc"
)

// TestStreamOfWindows: every VP owns a disjoint device-stream window, and
// guest streams outside the window are rejected instead of aliased onto a
// neighboring VP (vp*64+stream used to map VP0's stream 64 onto VP1's
// stream 0).
func TestStreamOfWindows(t *testing.T) {
	hi, err := streamOf(0, streamsPerVP-1)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := streamOf(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi >= lo {
		t.Fatalf("VP windows overlap: streamOf(0, max)=%d >= streamOf(1, 0)=%d", hi, lo)
	}
	for _, bad := range []int{-1, streamsPerVP, streamsPerVP + 64} {
		if _, err := streamOf(3, bad); err == nil {
			t.Fatalf("streamOf(3, %d) should be rejected", bad)
		}
	}
}

// TestHandleRejectsOutOfRangeStream: every wire request type with a stream
// returns ErrResp for an out-of-range guest stream.
func TestHandleRejectsOutOfRangeStream(t *testing.T) {
	s, _ := farmOfOne(t, DefaultOptions())
	defer s.Close()
	reqs := []any{
		ipc.H2DReq{Stream: streamsPerVP, Data: []byte{1}},
		ipc.D2HReq{Stream: -1, N: 1},
		ipc.MemsetReq{Stream: streamsPerVP, N: 1},
		ipc.SyncReq{Stream: streamsPerVP},
		ipc.LaunchReq{Stream: -7, Kernel: "vectorAdd", Grid: 1, Block: 32},
	}
	for _, req := range reqs {
		resp := s.Handle(0, req)
		er, ok := resp.(ipc.ErrResp)
		if !ok {
			t.Fatalf("Handle(%T) = %#v, want ErrResp", req, resp)
		}
		if !strings.Contains(er.Msg, "out of range") {
			t.Fatalf("Handle(%T) error %q should mention the range", req, er.Msg)
		}
	}
}

// TestBackendRejectsOutOfRangeStream: the in-process cudart back end surfaces
// the same validation.
func TestBackendRejectsOutOfRangeStream(t *testing.T) {
	m, _ := farmOfOne(t, DefaultOptions())
	b := m.Backend(2)
	if _, err := b.H2D(streamsPerVP, devmem.Ptr(0), 0, []byte{1}); err == nil {
		t.Fatal("H2D with out-of-range stream should fail")
	}
	if _, err := b.D2H(-1, devmem.Ptr(0), 0, 1); err == nil {
		t.Fatal("D2H with out-of-range stream should fail")
	}
	if _, err := b.Memset(streamsPerVP, devmem.Ptr(0), 0, 1, 0); err == nil {
		t.Fatal("Memset with out-of-range stream should fail")
	}
	if _, err := b.Launch(streamsPerVP, nil); err == nil {
		t.Fatal("Launch with out-of-range stream should fail")
	}
}
