package cudart

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/metrics"
)

// callFunc is a test-only ipc.Client: every call, boxed or typed, goes to the
// one function, and the typed calls narrow its reply with ipc.ReplyAs.
type callFunc func(req any) (any, error)

func (f callFunc) Call(req any) (any, error)                 { return f(req) }
func (f callFunc) CallH2D(r ipc.H2DReq) (ipc.OKResp, error)  { return ipc.ReplyAs[ipc.OKResp](f(r)) }
func (f callFunc) CallD2H(r ipc.D2HReq) (ipc.D2HResp, error) { return ipc.ReplyAs[ipc.D2HResp](f(r)) }
func (f callFunc) CallMemset(r ipc.MemsetReq) (ipc.OKResp, error) {
	return ipc.ReplyAs[ipc.OKResp](f(r))
}
func (f callFunc) CallLaunch(r ipc.LaunchReq) (ipc.OKResp, error) {
	return ipc.ReplyAs[ipc.OKResp](f(r))
}
func (f callFunc) Close() error { return nil }

// flakyClient fails its first `fail` calls with a retryable transport error
// and records every request it sees.
type flakyClient struct {
	fail  int
	err   error
	calls []any
}

func (f *flakyClient) Call(req any) (any, error) {
	f.calls = append(f.calls, req)
	if f.fail > 0 {
		f.fail--
		return nil, f.err
	}
	switch r := req.(type) {
	case ipc.H2DReq:
		return ipc.OKResp{End: 1}, nil
	case ipc.D2HReq:
		return ipc.D2HResp{Data: make([]byte, r.N), End: 2}, nil
	case ipc.MemsetReq:
		return ipc.OKResp{End: 3}, nil
	case ipc.LaunchReq:
		return ipc.OKResp{End: 4}, nil
	case ipc.MallocReq:
		return ipc.MallocResp{Ptr: 16}, nil
	}
	return ipc.ErrResp{Msg: fmt.Sprintf("unexpected %T", req)}, nil
}

func retryableErr() error {
	return &ipc.TimeoutError{Op: "read", After: time.Millisecond}
}

// TestRemoteRetriesIdempotentCalls: transport timeouts on H2D, D2H, and
// memset are retried transparently; the tokens succeed.
func TestRemoteRetriesIdempotentCalls(t *testing.T) {
	cases := []struct {
		name string
		do   func(b Backend) (Token, error)
	}{
		{"H2D", func(b Backend) (Token, error) { return b.H2D(0, 1, 0, []byte{1}) }},
		{"D2H", func(b Backend) (Token, error) { return b.D2H(0, 1, 0, 4) }},
		{"Memset", func(b Backend) (Token, error) { return b.Memset(0, 1, 0, 4, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := &flakyClient{fail: 2, err: retryableErr()}
			b := NewRemoteBackend(callFunc(fc.Call))
			tok, err := tc.do(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := tok.Wait(); err != nil {
				t.Fatalf("idempotent %s not retried: %v", tc.name, err)
			}
			if len(fc.calls) != 3 {
				t.Fatalf("want 3 attempts (2 failures + success), got %d", len(fc.calls))
			}
		})
	}
}

// TestRemoteRetryBudgetExhausted: when faults outlast the budget, the typed
// transport error surfaces through the token.
func TestRemoteRetryBudgetExhausted(t *testing.T) {
	fc := &flakyClient{fail: DefaultRetries + 1, err: retryableErr()}
	b := NewRemoteBackend(callFunc(fc.Call))
	tok, err := b.H2D(0, 1, 0, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	err = tok.Wait()
	var te *ipc.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want surfaced *ipc.TimeoutError, got %v", err)
	}
	if len(fc.calls) != DefaultRetries+1 {
		t.Fatalf("want %d attempts, got %d", DefaultRetries+1, len(fc.calls))
	}
}

// TestRemoteNeverRetriesNonIdempotent: launches, mallocs, and frees must
// not be replayed — the first transport failure surfaces immediately.
func TestRemoteNeverRetriesNonIdempotent(t *testing.T) {
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	l := &hostgpu.Launch{Kernel: bench.Kernel, Grid: 1, Block: 1}

	t.Run("Launch", func(t *testing.T) {
		fc := &flakyClient{fail: 1, err: retryableErr()}
		b := NewRemoteBackend(callFunc(fc.Call))
		tok, err := b.Launch(0, l)
		if err != nil {
			t.Fatal(err)
		}
		if err := tok.Wait(); !ipc.IsRetryable(err) {
			t.Fatalf("launch failure not surfaced: %v", err)
		}
		if len(fc.calls) != 1 {
			t.Fatalf("launch was replayed: %d attempts", len(fc.calls))
		}
	})
	t.Run("Malloc", func(t *testing.T) {
		fc := &flakyClient{fail: 1, err: retryableErr()}
		b := NewRemoteBackend(callFunc(fc.Call))
		if _, err := b.Malloc(64); !ipc.IsRetryable(err) {
			t.Fatalf("malloc failure not surfaced: %v", err)
		}
		if len(fc.calls) != 1 {
			t.Fatalf("malloc was replayed: %d attempts", len(fc.calls))
		}
	})
	t.Run("Free", func(t *testing.T) {
		fc := &flakyClient{fail: 1, err: retryableErr()}
		b := NewRemoteBackend(callFunc(fc.Call))
		if err := b.Free(devmem.Ptr(8)); !ipc.IsRetryable(err) {
			t.Fatalf("free failure not surfaced: %v", err)
		}
		if len(fc.calls) != 1 {
			t.Fatalf("free was replayed: %d attempts", len(fc.calls))
		}
	})
}

// TestRemoteRetriesDisabled: a zero budget turns retries off.
func TestRemoteRetriesDisabled(t *testing.T) {
	fc := &flakyClient{fail: 1, err: retryableErr()}
	b := NewRemoteBackendOpts(callFunc(fc.Call), RemoteOptions{})
	tok, err := b.H2D(0, 1, 0, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err == nil {
		t.Fatal("retry-disabled H2D swallowed the failure")
	}
	if len(fc.calls) != 1 {
		t.Fatalf("want 1 attempt, got %d", len(fc.calls))
	}
}

// TestOversizeH2DNotRetried: an H2D whose frame cannot fit the wire is
// refused by the ipc client before anything is written, with an error the
// idempotent-retry loop does not take for a transport fault. Before, the
// frame went out, the server closed the connection on it as corruption, and
// the retry redialed and resent the same doomed frame Retries times. The
// slice (one byte over ipc's 128 MiB frame cap) is never touched, so it costs
// address space only.
func TestOversizeH2DNotRetried(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	srv := ipc.Serve(l, func(vp int, req any) any {
		requests.Add(1)
		return ipc.OKResp{}
	})
	defer srv.Close()
	reg := metrics.New()
	c, err := ipc.DialWithOptions(srv.Addr().String(), 1, ipc.DialOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	b := NewRemoteBackendOpts(c, RemoteOptions{Retries: DefaultRetries, Metrics: reg})
	defer b.Close()

	tok, err := b.H2D(0, 0x100, 0, make([]byte, 1<<27+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); !errors.Is(err, ipc.ErrFrameTooLarge) {
		t.Fatalf("oversize H2D: err %v, want ipc.ErrFrameTooLarge", err)
	}
	for _, name := range []string{"cudart.retries", "cudart.retries_exhausted", "ipc.client.reconnects"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("server handled %d requests, want none", n)
	}
}
