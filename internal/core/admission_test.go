package core

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func TestAdmissionJobQuota(t *testing.T) {
	reg := metrics.New()
	a := newAdmission(AdmissionOptions{MaxQueuedJobs: 2}, reg)
	if oe := a.admit(0, 10); oe != nil {
		t.Fatalf("first admit shed: %v", oe)
	}
	if oe := a.admit(0, 10); oe != nil {
		t.Fatalf("second admit shed: %v", oe)
	}
	oe := a.admit(0, 10)
	if oe == nil {
		t.Fatal("third admit should shed")
	}
	if oe.Reason != "vp-jobs" || !oe.Retryable || oe.Backoff != DefaultRetryAfter {
		t.Fatalf("shed = %+v", oe)
	}
	if !errors.Is(oe, ErrOverloaded) {
		t.Fatal("shed must match ErrOverloaded")
	}
	// Another VP has its own quota.
	if oe := a.admit(1, 10); oe != nil {
		t.Fatalf("other VP shed: %v", oe)
	}
	// Releasing frees a slot.
	a.release(0, 10)
	if oe := a.admit(0, 10); oe != nil {
		t.Fatalf("admit after release shed: %v", oe)
	}
	if got := reg.Counter("core.admission.admitted").Value(); got != 4 {
		t.Fatalf("admitted = %d, want 4", got)
	}
	if got := reg.Counter("core.admission.shed").Value(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if got := reg.Counter("core.admission.shed.vp-jobs").Value(); got != 1 {
		t.Fatalf("shed.vp-jobs = %d, want 1", got)
	}
}

func TestAdmissionByteQuota(t *testing.T) {
	a := newAdmission(AdmissionOptions{MaxQueuedBytes: 100}, metrics.New())
	if oe := a.admit(0, 60); oe != nil {
		t.Fatalf("first admit shed: %v", oe)
	}
	oe := a.admit(0, 60)
	if oe == nil || oe.Reason != "vp-bytes" || !oe.Retryable {
		t.Fatalf("shed = %+v, want retryable vp-bytes", oe)
	}
	// A payload larger than the whole quota can never be admitted.
	oe = a.admit(0, 101)
	if oe == nil || oe.Reason != "payload" || oe.Retryable {
		t.Fatalf("shed = %+v, want non-retryable payload", oe)
	}
	a.release(0, 60)
	if oe := a.admit(0, 100); oe != nil {
		t.Fatalf("full-quota admit after release shed: %v", oe)
	}
}

func TestAdmissionDeviceCaps(t *testing.T) {
	a := newAdmission(AdmissionOptions{DeviceMaxQueuedJobs: 2, DeviceMaxQueuedBytes: 100}, metrics.New())
	if oe := a.admit(0, 40); oe != nil {
		t.Fatalf("admit: %v", oe)
	}
	if oe := a.admit(1, 40); oe != nil {
		t.Fatalf("admit: %v", oe)
	}
	// Device job cap hits a third VP even though its own quota is clean.
	oe := a.admit(2, 0)
	if oe == nil || oe.Reason != "device-jobs" || !oe.Retryable {
		t.Fatalf("shed = %+v, want device-jobs", oe)
	}
	a.release(0, 40)
	// One slot free, but the payload would blow the device byte cap.
	oe = a.admit(2, 70)
	if oe == nil || oe.Reason != "device-bytes" {
		t.Fatalf("shed = %+v, want device-bytes", oe)
	}
	if oe := a.admit(2, 60); oe != nil {
		t.Fatalf("fitting admit shed: %v", oe)
	}
	jobs, bytes := a.load()
	if jobs != 2 || bytes != 100 {
		t.Fatalf("load = %d jobs, %d bytes", jobs, bytes)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	reg := metrics.New()
	a := newAdmission(AdmissionOptions{Rate: 10, Burst: 2}, reg)
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	if oe := a.admit(0, 0); oe != nil {
		t.Fatalf("burst admit 1 shed: %v", oe)
	}
	if oe := a.admit(0, 0); oe != nil {
		t.Fatalf("burst admit 2 shed: %v", oe)
	}
	oe := a.admit(0, 0)
	if oe == nil || oe.Reason != "rate" || !oe.Retryable {
		t.Fatalf("shed = %+v, want retryable rate", oe)
	}
	// Token deficit is 1 at 10/s: the hint should say ~100ms.
	if oe.Backoff < 50*time.Millisecond || oe.Backoff > 150*time.Millisecond {
		t.Fatalf("backoff = %v, want ~100ms", oe.Backoff)
	}
	// Advancing the clock refills the bucket.
	clock = clock.Add(100 * time.Millisecond)
	if oe := a.admit(0, 0); oe != nil {
		t.Fatalf("admit after refill shed: %v", oe)
	}
	if got := reg.Counter("core.admission.throttled").Value(); got != 1 {
		t.Fatalf("throttled = %d, want 1", got)
	}
	if got := reg.Counter("core.admission.shed.rate").Value(); got != 1 {
		t.Fatalf("shed.rate = %d, want 1", got)
	}
}

func TestAdmissionGaugesBalance(t *testing.T) {
	reg := metrics.New()
	a := newAdmission(AdmissionOptions{MaxQueuedJobs: 8, MaxQueuedBytes: 1 << 20}, reg)
	for i := 0; i < 4; i++ {
		if oe := a.admit(i%2, 100); oe != nil {
			t.Fatalf("admit: %v", oe)
		}
	}
	if got := reg.Gauge("core.admission.queue_jobs").Value(); got != 4 {
		t.Fatalf("queue_jobs = %d", got)
	}
	if got := reg.Gauge("core.admission.queue_bytes").Value(); got != 400 {
		t.Fatalf("queue_bytes = %d", got)
	}
	for i := 0; i < 4; i++ {
		a.release(i%2, 100)
	}
	if got := reg.Gauge("core.admission.queue_jobs").Value(); got != 0 {
		t.Fatalf("queue_jobs after release = %d", got)
	}
	if got := reg.Gauge("core.admission.queue_bytes").Value(); got != 0 {
		t.Fatalf("queue_bytes after release = %d", got)
	}
	jobs, bytes := a.load()
	if jobs != 0 || bytes != 0 {
		t.Fatalf("load = %d, %d after full release", jobs, bytes)
	}
}

// TestHandleShedsOverload drives the IPC serving path: an over-quota payload
// comes back as a non-retryable ipc.OverloadResp, a rate-shed request as a
// retryable one with a backoff hint, and neither perturbs the simulated-work
// registry or leaks a reservation.
func TestHandleShedsOverload(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedBytes: 16}
	s := NewService(opts)
	defer s.Close()
	before := s.Snapshot()

	resp := s.Handle(0, ipc.H2DReq{Dst: 0x1000, Data: make([]byte, 64)})
	or, ok := resp.(ipc.OverloadResp)
	if !ok {
		t.Fatalf("resp = %#v, want OverloadResp", resp)
	}
	if or.Retryable {
		t.Fatal("over-quota payload must be non-retryable")
	}
	if jobs, bytes := s.AdmissionLoad(); jobs != 0 || bytes != 0 {
		t.Fatalf("shed leaked reservation: %d jobs, %d bytes", jobs, bytes)
	}
	bj, err := before.JSON()
	if err != nil {
		t.Fatal(err)
	}
	aj, err := s.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(bj) != string(aj) {
		t.Fatal("shed perturbed simulated-work registry")
	}

	// Rate limiting: burst of 1, negligible refill — the second submit sheds
	// retryably.
	opts = DefaultOptions()
	opts.Admission = AdmissionOptions{Rate: 1e-9, Burst: 1}
	s2 := NewService(opts)
	defer s2.Close()
	p, _ := s2.GPU.Mem.Alloc(64)
	if _, ok := s2.Handle(0, ipc.H2DReq{Dst: p, Data: make([]byte, 8)}).(ipc.OKResp); !ok {
		t.Fatal("first submit should be admitted")
	}
	or, ok = s2.Handle(0, ipc.H2DReq{Dst: p, Data: make([]byte, 8)}).(ipc.OverloadResp)
	if !ok {
		t.Fatal("second submit should shed on rate")
	}
	if !or.Retryable || or.Backoff <= 0 {
		t.Fatalf("rate shed = %+v, want retryable with backoff", or)
	}
}

// TestAdmissionReleasedOnDispatch pins the reservation lifecycle on the happy
// path: admitted jobs hold quota until their batch retires, then release
// exactly once.
func TestAdmissionReleasedOnDispatch(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedJobs: 4}
	s := NewService(opts)
	defer s.Close()
	p, _ := s.GPU.Mem.Alloc(1 << 10)
	for i := 0; i < 3; i++ {
		if _, ok := s.Handle(0, ipc.H2DReq{Dst: p, Data: make([]byte, 16)}).(ipc.OKResp); !ok {
			t.Fatalf("submit %d failed", i)
		}
	}
	s.Drain()
	if jobs, bytes := s.AdmissionLoad(); jobs != 0 || bytes != 0 {
		t.Fatalf("reservations leaked after dispatch: %d jobs, %d bytes", jobs, bytes)
	}
	areg := s.AdmissionMetrics()
	if got := areg.Counter("core.admission.admitted").Value(); got != 3 {
		t.Fatalf("admitted = %d", got)
	}
	if got := areg.Gauge("core.admission.queue_jobs").Value(); got != 0 {
		t.Fatalf("queue_jobs = %d", got)
	}
}

// TestAdmissionReleasedOnDisconnect pins the other half of the lifecycle: a
// VP that vanishes with admitted-but-undispatched jobs gets its reservations
// returned by the disconnect path.
func TestAdmissionReleasedOnDisconnect(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedJobs: 8}
	s := NewService(opts)
	defer s.Close()
	// Two registered VPs, neither parked in WaitJob: submissions queue
	// without dispatching (the all-stopped predicate holds dispatch back).
	s.RegisterVP(0)
	s.RegisterVP(1)
	p, _ := s.GPU.Mem.Alloc(1 << 10)
	jobs := make([]*sched.Job, 3)
	for i := range jobs {
		j := sched.NewH2D(0, 0, p, 0, make([]byte, 32))
		if resp := s.admitJob(0, j); resp != nil {
			t.Fatalf("admit %d: %v", i, resp)
		}
		s.Submit(j)
		jobs[i] = j
	}
	if n, b := s.AdmissionLoad(); n != 3 || b != 96 {
		t.Fatalf("load = %d jobs, %d bytes before disconnect", n, b)
	}
	s.DisconnectVP(0)
	if n, b := s.AdmissionLoad(); n != 0 || b != 0 {
		t.Fatalf("disconnect leaked reservations: %d jobs, %d bytes", n, b)
	}
	for i, j := range jobs {
		if err := j.Wait(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("job %d err = %v, want ErrCancelled", i, err)
		}
	}
}

// TestExecDepthGaugeSingleOwner pins the queue-depth gauge fix under -race:
// the gauge is written only under the executor mutex, counts in-pipeline
// batches, returns to zero once drained, and the high-water gauge stays
// within the structural bound (queue slots + one executing + one blocked
// enqueuer).
func TestExecDepthGaugeSingleOwner(t *testing.T) {
	opts := DefaultOptions()
	s := NewService(opts)
	defer s.Close()
	p, _ := s.GPU.Mem.Alloc(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j := sched.NewH2D(g, 0, p, 0, make([]byte, 256))
				s.DispatchRaw([]*sched.Job{j})
			}
		}(g)
	}
	wg.Wait()
	s.Drain()
	ereg := s.ExecMetrics()
	if got := ereg.Gauge("core.exec.queue_depth").Value(); got != 0 {
		t.Fatalf("queue_depth = %d after drain, want 0", got)
	}
	hw := ereg.Gauge("core.exec.queue_depth_hw").Value()
	if hw < 1 || hw > ExecQueueDepth+2 {
		t.Fatalf("queue_depth_hw = %d, want in [1, %d]", hw, ExecQueueDepth+2)
	}
	if got := ereg.Counter("core.exec.batches").Value(); got != 32 {
		t.Fatalf("batches = %d, want 32", got)
	}
}

// TestOverloadSurfacesOnEveryTransport: the typed overload rejection decodes
// back into *ipc.OverloadError on the in-process pipe and over the binary
// TCP protocol, so the cudart retry contract works regardless of transport.
func TestOverloadSurfacesOnEveryTransport(t *testing.T) {
	newSvc := func() *Service {
		opts := DefaultOptions()
		opts.Admission = AdmissionOptions{MaxQueuedBytes: 16}
		return NewService(opts)
	}
	check := t.Helper
	assertOverload := func(t *testing.T, err error) {
		check()
		oe, ok := ipc.AsOverload(err)
		if !ok {
			t.Fatalf("err = %v (%T), want *ipc.OverloadError", err, err)
		}
		if oe.Retryable {
			t.Fatal("oversized payload must be non-retryable")
		}
	}
	oversized := ipc.H2DReq{Dst: 0x1000, Data: make([]byte, 64)}

	t.Run("pipe", func(t *testing.T) {
		s := newSvc()
		defer s.Close()
		c := ipc.Pipe(0, s.Handle)
		_, err := c.Call(oversized)
		assertOverload(t, err)
	})
	t.Run("binary", func(t *testing.T) {
		s := newSvc()
		defer s.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ipc.Serve(l, s.Handle)
		defer srv.Close()
		c, err := ipc.Dial(l.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Call(oversized)
		assertOverload(t, err)
	})
}
