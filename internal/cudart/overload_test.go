package cudart

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/metrics"
)

// testLaunch builds a minimal valid launch for the retry tests.
func testLaunch(t *testing.T) *hostgpu.Launch {
	t.Helper()
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	return &hostgpu.Launch{Kernel: bench.Kernel, Grid: 1, Block: 1}
}

// shedClient sheds its first `shed` calls with an overload error and then
// answers normally, recording every request.
type shedClient struct {
	shed      int
	retryable bool
	backoff   time.Duration
	calls     []any
}

func (f *shedClient) Call(req any) (any, error) {
	f.calls = append(f.calls, req)
	if f.shed > 0 || f.shed < 0 {
		if f.shed > 0 {
			f.shed--
		}
		return nil, &ipc.OverloadError{Msg: "shed", Backoff: f.backoff, Retryable: f.retryable}
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
	}
	return ipc.ErrResp{Msg: fmt.Sprintf("unexpected %T", req)}, nil
}

// shedBackend builds a remote backend over a shedClient with an instrumented
// sleep so tests observe (not wait for) each honoured backoff.
func shedBackend(c *shedClient, reg *metrics.Registry) (Backend, *[]time.Duration) {
	b := NewRemoteBackendOpts(callFunc(c.Call), RemoteOptions{Metrics: reg}).(*remoteBackend)
	slept := &[]time.Duration{}
	b.sleep = func(d time.Duration) { *slept = append(*slept, d) }
	return b, slept
}

// TestOverloadRetrySucceeds: retryable sheds are resubmitted after honouring
// the server's backoff hint; the operation eventually succeeds and the
// application never sees the overload.
func TestOverloadRetrySucceeds(t *testing.T) {
	reg := metrics.New()
	c := &shedClient{shed: 2, retryable: true, backoff: 8 * time.Millisecond}
	b, slept := shedBackend(c, reg)

	tok, err := b.H2D(0, 1, 0, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatalf("token err = %v after retries", err)
	}
	if len(c.calls) != 3 {
		t.Fatalf("calls = %d, want 3 (2 sheds + success)", len(c.calls))
	}
	if len(*slept) != 2 {
		t.Fatalf("backoffs honoured = %d, want 2", len(*slept))
	}
	// Jittered hint stays within [hint/2, 2*hint] for the observed attempts.
	for i, d := range *slept {
		if d < 4*time.Millisecond || d > 16*time.Millisecond {
			t.Fatalf("backoff %d = %v outside jitter window", i, d)
		}
	}
	if got := reg.Counter("cudart.overload_retries").Value(); got != 2 {
		t.Fatalf("overload_retries = %d", got)
	}
	if got := reg.Counter("cudart.overload_exhausted").Value(); got != 0 {
		t.Fatalf("overload_exhausted = %d", got)
	}
}

// TestOverloadRetryLaunch: launches — never replayed after transport faults —
// ARE resubmitted after an overload shed, because a shed launch was never
// admitted server-side.
func TestOverloadRetryLaunch(t *testing.T) {
	c := &shedClient{shed: 1, retryable: true, backoff: time.Millisecond}
	b, _ := shedBackend(c, metrics.New())
	tok, err := b.Launch(0, testLaunch(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := tok.Wait(); err != nil {
		t.Fatalf("launch token err = %v", err)
	}
	if len(c.calls) != 2 {
		t.Fatalf("calls = %d, want 2 (shed + resubmit)", len(c.calls))
	}
}

// TestOverloadNonRetryableSurfaces: a non-retryable shed (payload can never
// fit the quota) reaches the application immediately, with no backoff.
func TestOverloadNonRetryableSurfaces(t *testing.T) {
	c := &shedClient{shed: -1, retryable: false}
	b, slept := shedBackend(c, metrics.New())
	tok, err := b.H2D(0, 1, 0, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	oe, ok := ipc.AsOverload(tok.Wait())
	if !ok || oe.Retryable {
		t.Fatalf("err = %v, want non-retryable overload", tok.Wait())
	}
	if len(c.calls) != 1 || len(*slept) != 0 {
		t.Fatalf("calls = %d, backoffs = %d; non-retryable must not retry", len(c.calls), len(*slept))
	}
}

// TestOverloadRetryExhausted: a persistently shedding server exhausts the
// budget; the typed overload error surfaces with its hint intact.
func TestOverloadRetryExhausted(t *testing.T) {
	reg := metrics.New()
	c := &shedClient{shed: -1, retryable: true, backoff: time.Millisecond}
	b, slept := shedBackend(c, reg)
	tok, err := b.D2H(0, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	oe, ok := ipc.AsOverload(tok.Wait())
	if !ok || !oe.Retryable || oe.Backoff <= 0 {
		t.Fatalf("err = %v, want retryable overload with hint", tok.Wait())
	}
	if want := 1 + DefaultOverloadRetries; len(c.calls) != want {
		t.Fatalf("calls = %d, want %d", len(c.calls), want)
	}
	if len(*slept) != DefaultOverloadRetries {
		t.Fatalf("backoffs = %d, want %d", len(*slept), DefaultOverloadRetries)
	}
	if got := reg.Counter("cudart.overload_exhausted").Value(); got != 1 {
		t.Fatalf("overload_exhausted = %d", got)
	}
}

// TestBackoffCap: a pathological server hint cannot park the guest past
// DefaultMaxBackoff.
func TestBackoffCap(t *testing.T) {
	c := &shedClient{shed: 1, retryable: true, backoff: time.Hour}
	b, slept := shedBackend(c, metrics.New())
	if _, err := b.Memset(0, 1, 0, 4, 0); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] < DefaultMaxBackoff/2 || (*slept)[0] > DefaultMaxBackoff {
		t.Fatalf("slept = %v, want one wait in [%v, %v]", *slept, DefaultMaxBackoff/2, DefaultMaxBackoff)
	}
}
