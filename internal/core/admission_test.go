package core

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/ipc"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// testGate builds the admission gate of a one-device farm whose device and
// farm both record into one fresh registry.
func testGate(opts AdmissionOptions) (*admission, *metrics.Registry) {
	reg := metrics.New()
	return &admission{opts: opts, farm: reg, vps: map[int]*vpAdmission{}, devs: []deviceLoad{{reg: reg}}}, reg
}

func TestAdmissionJobQuota(t *testing.T) {
	a, reg := testGate(AdmissionOptions{MaxQueuedJobs: 2})
	if oe := a.admit(0, 0, 10); oe != nil {
		t.Fatalf("first admit shed: %v", oe)
	}
	if oe := a.admit(0, 0, 10); oe != nil {
		t.Fatalf("second admit shed: %v", oe)
	}
	oe := a.admit(0, 0, 10)
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
	if oe := a.admit(0, 1, 10); oe != nil {
		t.Fatalf("other VP shed: %v", oe)
	}
	// Releasing frees a slot.
	a.release(0, 0, 10)
	if oe := a.admit(0, 0, 10); oe != nil {
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
	a, _ := testGate(AdmissionOptions{MaxQueuedBytes: 100})
	if oe := a.admit(0, 0, 60); oe != nil {
		t.Fatalf("first admit shed: %v", oe)
	}
	oe := a.admit(0, 0, 60)
	if oe == nil || oe.Reason != "vp-bytes" || !oe.Retryable {
		t.Fatalf("shed = %+v, want retryable vp-bytes", oe)
	}
	// A payload larger than the whole quota can never be admitted.
	oe = a.admit(0, 0, 101)
	if oe == nil || oe.Reason != "payload" || oe.Retryable {
		t.Fatalf("shed = %+v, want non-retryable payload", oe)
	}
	a.release(0, 0, 60)
	if oe := a.admit(0, 0, 100); oe != nil {
		t.Fatalf("full-quota admit after release shed: %v", oe)
	}
}

func TestAdmissionDeviceCaps(t *testing.T) {
	a, _ := testGate(AdmissionOptions{DeviceMaxQueuedJobs: 2, DeviceMaxQueuedBytes: 100})
	if oe := a.admit(0, 0, 40); oe != nil {
		t.Fatalf("admit: %v", oe)
	}
	if oe := a.admit(0, 1, 40); oe != nil {
		t.Fatalf("admit: %v", oe)
	}
	// Device job cap hits a third VP even though its own quota is clean.
	oe := a.admit(0, 2, 0)
	if oe == nil || oe.Reason != "device-jobs" || !oe.Retryable {
		t.Fatalf("shed = %+v, want device-jobs", oe)
	}
	a.release(0, 0, 40)
	// One slot free, but the payload would blow the device byte cap.
	oe = a.admit(0, 2, 70)
	if oe == nil || oe.Reason != "device-bytes" {
		t.Fatalf("shed = %+v, want device-bytes", oe)
	}
	if oe := a.admit(0, 2, 60); oe != nil {
		t.Fatalf("fitting admit shed: %v", oe)
	}
	if d := a.device(0); d.jobs != 2 || d.bytes != 100 {
		t.Fatalf("load = %d jobs, %d bytes", d.jobs, d.bytes)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	a, reg := testGate(AdmissionOptions{Rate: 10, Burst: 2})
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	if oe := a.admit(0, 0, 0); oe != nil {
		t.Fatalf("burst admit 1 shed: %v", oe)
	}
	if oe := a.admit(0, 0, 0); oe != nil {
		t.Fatalf("burst admit 2 shed: %v", oe)
	}
	oe := a.admit(0, 0, 0)
	if oe == nil || oe.Reason != "rate" || !oe.Retryable {
		t.Fatalf("shed = %+v, want retryable rate", oe)
	}
	// Token deficit is 1 at 10/s: the hint should say ~100ms.
	if oe.Backoff < 50*time.Millisecond || oe.Backoff > 150*time.Millisecond {
		t.Fatalf("backoff = %v, want ~100ms", oe.Backoff)
	}
	// Advancing the clock refills the bucket.
	clock = clock.Add(100 * time.Millisecond)
	if oe := a.admit(0, 0, 0); oe != nil {
		t.Fatalf("admit after refill shed: %v", oe)
	}
	if got := reg.Counter("core.admission.throttled").Value(); got != 1 {
		t.Fatalf("throttled = %d, want 1", got)
	}
	if got := reg.Counter("core.admission.shed.rate").Value(); got != 1 {
		t.Fatalf("shed.rate = %d, want 1", got)
	}
}

// TestAdmissionGaugesNeverExceedCaps: VPs admit and release at the device
// caps while a sampler reads the queue gauges, as the overload drill does.
// The reservations never exceed the caps, so neither may a gauge: one
// published outside the admission lock could land a release after a newer
// admit and read one job above the cap.
func TestAdmissionGaugesNeverExceedCaps(t *testing.T) {
	const capJobs, payload = 4, 256
	a, reg := testGate(AdmissionOptions{DeviceMaxQueuedJobs: capJobs, DeviceMaxQueuedBytes: capJobs * payload})
	jobsG, bytesG := reg.Gauge("core.admission.queue_jobs"), reg.Gauge("core.admission.queue_bytes")
	stop := make(chan struct{})
	seen := make(chan [2]int64)
	go func() {
		var hw [2]int64
		for {
			select {
			case <-stop:
				seen <- hw
				return
			default:
			}
			hw[0] = max(hw[0], jobsG.Value())
			hw[1] = max(hw[1], bytesG.Value())
		}
	}()
	var wg sync.WaitGroup
	deadline := time.Now().Add(500 * time.Millisecond)
	for vp := 0; vp < 8; vp++ {
		wg.Add(1)
		go func(vp int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if a.admit(0, vp, payload) == nil {
					a.release(0, vp, payload)
				}
			}
		}(vp)
	}
	wg.Wait()
	close(stop)
	hw := <-seen
	if hw[0] > capJobs || hw[1] > capJobs*payload {
		t.Fatalf("admission gauges read above the caps: jobs %d/%d, bytes %d/%d", hw[0], capJobs, hw[1], capJobs*payload)
	}
	if jobsG.Value() != 0 || bytesG.Value() != 0 {
		t.Fatalf("gauges after every release: jobs %d, bytes %d", jobsG.Value(), bytesG.Value())
	}
	// The gate's high-water is exact: within the caps, and never below what
	// the sampler happened to see.
	d := a.device(0)
	jobsHW, bytesHW := d.peakJobs, d.peakBytes
	if jobsHW > capJobs || bytesHW > capJobs*payload || int64(jobsHW) < hw[0] || bytesHW < hw[1] {
		t.Fatalf("high-water jobs %d, bytes %d; caps %d, %d; sampled %d, %d",
			jobsHW, bytesHW, capJobs, capJobs*payload, hw[0], hw[1])
	}
}

func TestAdmissionGaugesBalance(t *testing.T) {
	a, reg := testGate(AdmissionOptions{MaxQueuedJobs: 8, MaxQueuedBytes: 1 << 20})
	for i := 0; i < 4; i++ {
		if oe := a.admit(0, i%2, 100); oe != nil {
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
		a.release(0, i%2, 100)
	}
	if got := reg.Gauge("core.admission.queue_jobs").Value(); got != 0 {
		t.Fatalf("queue_jobs after release = %d", got)
	}
	if got := reg.Gauge("core.admission.queue_bytes").Value(); got != 0 {
		t.Fatalf("queue_bytes after release = %d", got)
	}
	d := a.device(0)
	if d.peakJobs != 4 || d.peakBytes != 400 {
		t.Fatalf("high-water after release: jobs %d, bytes %d; want 4, 400", d.peakJobs, d.peakBytes)
	}
	if d.jobs != 0 || d.bytes != 0 {
		t.Fatalf("load = %d, %d after full release", d.jobs, d.bytes)
	}
}

// TestHandleShedsOverload drives the IPC serving path: an over-quota payload
// comes back as a non-retryable ipc.OverloadResp, a rate-shed request as a
// retryable one with a backoff hint, and neither perturbs the simulated
// registry or leaks a reservation.
func TestHandleShedsOverload(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedBytes: 16}
	m, s := farmOfOne(t, opts)
	dst, err := s.AllocVP(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()

	resp := m.Handle(0, ipc.H2DReq{Dst: dst, Data: make([]byte, 64)})
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
		t.Fatal("shed perturbed the simulated snapshot")
	}

	// Rate limiting: burst of 1, negligible refill — the second submit sheds
	// retryably.
	opts = DefaultOptions()
	opts.Admission = AdmissionOptions{Rate: 1e-9, Burst: 1}
	m2, s2 := farmOfOne(t, opts)
	p, _ := s2.AllocVP(0, 64)
	if _, ok := m2.Handle(0, ipc.H2DReq{Dst: p, Data: make([]byte, 8)}).(ipc.OKResp); !ok {
		t.Fatal("first submit should be admitted")
	}
	or, ok = m2.Handle(0, ipc.H2DReq{Dst: p, Data: make([]byte, 8)}).(ipc.OverloadResp)
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
	m, s := farmOfOne(t, opts)
	p, _ := s.AllocVP(0, 1<<10)
	for i := 0; i < 3; i++ {
		if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: make([]byte, 16)}).(ipc.OKResp); !ok {
			t.Fatalf("submit %d failed", i)
		}
	}
	s.Drain()
	if jobs, bytes := s.AdmissionLoad(); jobs != 0 || bytes != 0 {
		t.Fatalf("reservations leaked after dispatch: %d jobs, %d bytes", jobs, bytes)
	}
	areg := s.Metrics()
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
	m, s := farmOfOne(t, opts)
	// Two registered VPs, neither parked in WaitJob: submissions queue
	// without dispatching (the all-stopped predicate holds dispatch back).
	m.RegisterVP(0)
	m.RegisterVP(1)
	p, _ := s.GPU.Mem.Alloc(1 << 10)
	jobs := make([]*sched.Job, 3)
	for i := range jobs {
		_, j, err := m.submit(0, func(*Service) (*sched.Job, error) {
			return sched.NewH2D(0, 0, p, 0, make([]byte, 32)), nil
		})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		jobs[i] = j
	}
	if n, b := s.AdmissionLoad(); n != 3 || b != 96 {
		t.Fatalf("load = %d jobs, %d bytes before disconnect", n, b)
	}
	m.DisconnectVP(0)
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
	s := newService(opts)
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
	ereg := s.Metrics()
	if got := ereg.Gauge("core.exec.queue_depth").Value(); got != 0 {
		t.Fatalf("queue_depth = %d after drain, want 0", got)
	}
	hw := ereg.Gauge("core.exec.queue_depth_hw").Value()
	if hw < 1 || hw > execQueueDepth+2 {
		t.Fatalf("queue_depth_hw = %d, want in [1, %d]", hw, execQueueDepth+2)
	}
	if got := ereg.Counter("core.exec.batches").Value(); got != 32 {
		t.Fatalf("batches = %d, want 32", got)
	}
}

// TestOverloadSurfacesOnEveryTransport: the typed overload rejection decodes
// back into *ipc.OverloadError through a test pipe into Handle and over the
// binary TCP protocol, so the cudart retry contract works regardless of
// transport.
func TestOverloadSurfacesOnEveryTransport(t *testing.T) {
	// Each farm's oversized H2D targets a buffer its VP owns.
	newSvc := func() (*MultiService, ipc.H2DReq) {
		opts := DefaultOptions()
		opts.Admission = AdmissionOptions{MaxQueuedBytes: 16}
		m, s := farmOfOne(t, opts)
		dst, err := s.AllocVP(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		return m, ipc.H2DReq{Dst: dst, Data: make([]byte, 64)}
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
	t.Run("pipe", func(t *testing.T) {
		s, oversized := newSvc()
		_, err := testPipe{vp: 0, ep: s}.Call(oversized)
		assertOverload(t, err)
	})
	t.Run("binary", func(t *testing.T) {
		s, oversized := newSvc()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ipc.ServeEndpoint(l, s)
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

// TestSameShedOnBothRoutes: the farm has one door. A 64-byte H2D into a
// one-device farm whose per-VP byte quota is 16 is shed on the in-process
// route and over TCP alike: not retryable, for the same reason, counted once
// on each route, and with no reservation left behind.
func TestSameShedOnBothRoutes(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{MaxQueuedBytes: 16}
	m, s := farmOfOne(t, opts)
	const vp = 0
	dst := mallocVP(t, m, vp, 64).Ptr
	data := make([]byte, 64)
	shed := s.Metrics().Counter("core.admission.shed")
	noLeak := func(route string) {
		t.Helper()
		if jobs, bytes := m.Device(0).AdmissionLoad(); jobs != 0 || bytes != 0 {
			t.Fatalf("%s: shed left a reservation: %d jobs, %d bytes", route, jobs, bytes)
		}
	}

	_, err := m.Backend(vp).H2D(0, dst, 0, data)
	var local *OverloadError
	if !errors.As(err, &local) || local.Retryable || local.Reason != "payload" {
		t.Fatalf("in process: err = %v, want a non-retryable payload shed", err)
	}
	if got := shed.Value(); got != 1 {
		t.Fatalf("in process: core.admission.shed = %d, want 1", got)
	}
	noLeak("in process")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, m)
	defer srv.Close()
	c, err := ipc.Dial(srv.Addr().String(), vp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CallH2D(ipc.H2DReq{Dst: dst, Data: data})
	remote, ok := ipc.AsOverload(err)
	if !ok || remote.Retryable || remote.Msg != local.Error() {
		t.Fatalf("tcp: err = %v, want the in-process shed %q, not retryable", err, local.Error())
	}
	if got := shed.Value(); got != 2 {
		t.Fatalf("tcp: core.admission.shed = %d, want 2", got)
	}
	noLeak("tcp")
}

// TestFarmCapIsExact: a farm cap is a hard bound, not a sample. Eight VPs on
// two devices submit at once from a barrier, round after round, through the
// farm's one route; no round may hold more reservations than the farm job
// cap, or more bytes than the farm byte cap. Jobs queue without dispatching
// (every VP is registered and none is parked), so each round's reservations
// are all held until the round's flush.
func TestFarmCapIsExact(t *testing.T) {
	const vps, rounds, payload = 8, 20000, 64
	for _, tc := range []struct {
		name string
		adm  AdmissionOptions
	}{
		{"jobs", AdmissionOptions{FarmMaxQueuedJobs: 1}},
		{"bytes", AdmissionOptions{FarmMaxQueuedBytes: payload + payload/2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Admission = tc.adm
			m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, payload)
			builds := make([]func(*Service) (*sched.Job, error), vps)
			for vp := range builds {
				m.RegisterVP(vp)
				p := mallocVP(t, m, vp, payload).Ptr
				builds[vp] = func(s *Service) (*sched.Job, error) { return s.h2dJob(vp, 0, p, 0, data, nil) }
			}
			var admitted atomic.Int32
			var done sync.WaitGroup
			starts := make([]chan struct{}, vps)
			for vp := range starts {
				starts[vp] = make(chan struct{}, 1)
				go func(vp int) {
					for range starts[vp] {
						if _, _, err := m.submit(vp, builds[vp]); err == nil {
							admitted.Add(1)
						} else if !errors.Is(err, ErrOverloaded) {
							t.Error(err)
						}
						done.Done()
					}
				}(vp)
			}
			over := 0
			for r := 0; r < rounds; r++ {
				admitted.Store(0)
				done.Add(vps)
				for _, start := range starts {
					start <- struct{}{}
				}
				done.Wait()
				if admitted.Load() > 1 {
					over++
				}
				m.Flush()
			}
			for _, start := range starts {
				close(start)
			}
			if over > 0 {
				t.Fatalf("%d of %d rounds admitted more than the farm cap allows", over, rounds)
			}
			for d := 0; d < m.Devices(); d++ {
				if jobs, bytes := m.Device(d).AdmissionLoad(); jobs != 0 || bytes != 0 {
					t.Fatalf("device %d holds %d jobs, %d bytes after the last flush", d, jobs, bytes)
				}
			}
		})
	}
}

// TestAdmissionBucketFollowsMigration: a VP's token bucket is the VP's, not
// its device's. A VP that has spent its burst and migrates is still shed for
// rate on the target device; a fresh bucket there would let any guest escape
// its rate limit by sending MigrateReq.
func TestAdmissionBucketFollowsMigration(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{Rate: 0.001, Burst: 1}
	m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	const vp = 0
	dst := mallocVP(t, m, vp, 64).Ptr
	h2d := func() error {
		_, err := m.Backend(vp).H2D(0, dst, 0, make([]byte, 8))
		return err
	}
	rateShed := func(when string, err error) {
		t.Helper()
		var oe *OverloadError
		if !errors.As(err, &oe) || oe.Reason != "rate" {
			t.Fatalf("%s: err = %v, want a rate shed", when, err)
		}
	}
	if err := h2d(); err != nil {
		t.Fatalf("first H2D: %v", err)
	}
	rateShed("second H2D", h2d())
	if d, _ := m.Assignment(vp); d != 0 {
		t.Fatalf("vp placed on device %d, want 0", d)
	}
	if err := m.Migrate(vp, 1); err != nil {
		t.Fatal(err)
	}
	rateShed("H2D after migrating", h2d())
}
