package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/metrics"
)

// Overload drill geometry. The caps are deliberately tiny so a handful of
// concurrent submitters is already "4× oversubscription": the drill is about
// the admission gate's behaviour at its limits, not about volume.
const (
	overloadCapJobs  = 4        // per-VP MaxQueuedJobs
	overloadCapBytes = 64 << 10 // per-VP MaxQueuedBytes

	// Aggressor payloads: the small one makes the job quota bind, the big one
	// makes the byte quota bind, so both shed reasons are exercised.
	overloadSmallPayload = 256
	overloadBigPayload   = 24 << 10
)

// OverloadDrillResult summarizes one overload drill: a 2-device farm served
// over real TCP IPC, with one well-behaved "victim" VP alone on device 0 and
// an aggressor VP on device 1 oversubscribing its admission quota several
// times over. The drill checks the ΣVP graceful-degradation contract:
//
//   - bounded: the admission reservations (the daemon's RSS proxy) never
//     exceed the configured caps, no matter how hard the aggressor pushes;
//   - shed, not blocked: excess submissions come back as typed, retryable
//     overload errors carrying a backoff hint, instead of parking IPC workers;
//   - isolated and deterministic: the victim's admitted work produces
//     byte-identical simulated metrics, engine trace, and D2H bytes whether
//     the aggressor device is idle or melting down.
type OverloadDrillResult struct {
	Oversub int // submitter concurrency as a multiple of the job quota
	Iters   int // victim workload iterations

	CapJobs  int
	CapBytes int64

	// Aggressor-side outcome (contended pass).
	Attempts int64
	Admitted int64
	Sheds    int64
	// BadSheds counts sheds that broke the contract: not typed as an
	// overload, retryable without a positive backoff hint, or non-retryable
	// for an admissible payload. Must be zero.
	BadSheds    int64
	ShedReasons map[string]int

	// Sampled high-water of the admission gauges across both devices during
	// the contended pass. The reservation accounting bounds them by the caps;
	// a sample above the cap is an accounting bug.
	MaxQueuedJobsSeen  int64
	MaxQueuedBytesSeen int64

	// LeakJobs/LeakBytes are the farm-wide admission reservations left after
	// every submitter finished and the pipelines drained. Must be zero: every
	// admitted job releases its reservation exactly once.
	LeakJobs  int
	LeakBytes int64

	// Byte-identity of the victim's artifacts between the contended and the
	// uncontended pass.
	IdenticalD2H     bool
	IdenticalMetrics bool
	IdenticalTrace   bool

	// HealthyAfter reports whether both devices answered a clean round trip
	// after the contended pass.
	HealthyAfter bool

	// Metrics is the contended farm's admission snapshot (per-device
	// prefixed + aggregate + farm counters).
	Metrics metrics.Snapshot
}

func (r *OverloadDrillResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload drill: 2-device farm, %d× oversubscription of a %d-job/%dKiB per-VP quota, victim × %d iters\n",
		r.Oversub, r.CapJobs, r.CapBytes>>10, r.Iters)
	fmt.Fprintf(&b, "  aggressor: %d attempts → %d admitted, %d shed (%d contract violations)\n",
		r.Attempts, r.Admitted, r.Sheds, r.BadSheds)
	reasons := make([]string, 0, len(r.ShedReasons))
	for k := range r.ShedReasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(&b, "    shed %-12s %d\n", k, r.ShedReasons[k])
	}
	fmt.Fprintf(&b, "  bounded: queue_jobs high-water %d (cap %d), queue_bytes high-water %d (cap %d), leaks %d jobs / %d bytes\n",
		r.MaxQueuedJobsSeen, r.CapJobs, r.MaxQueuedBytesSeen, r.CapBytes, r.LeakJobs, r.LeakBytes)
	fmt.Fprintf(&b, "  victim identical to uncontended run: d2h=%v metrics=%v trace=%v; farm healthy after drill: %v\n",
		r.IdenticalD2H, r.IdenticalMetrics, r.IdenticalTrace, r.HealthyAfter)
	fmt.Fprintf(&b, "  observed: admitted=%d shed=%d throttled=%d placement_refusals=%d\n",
		r.Metrics.CounterValue("core.admission.admitted"),
		r.Metrics.CounterValue("core.admission.shed"),
		r.Metrics.CounterValue("core.admission.throttled"),
		r.Metrics.CounterValue("core.admission.placement_refusals"))
	return b.String()
}

// overloadPass is one farm run's artifacts and aggressor statistics.
type overloadPass struct {
	d2h         []byte
	metricsJSON []byte
	traceJSON   []byte

	attempts, admitted, sheds, badSheds int64
	shedReasons                         map[string]int
	maxJobs, maxBytes                   int64
	leakJobs                            int
	leakBytes                           int64
	healthy                             bool
	healthErr                           string
	admSnap                             metrics.Snapshot
}

// shedReasonOf extracts the admission reason embedded in an overload
// message (see core.OverloadError.Error).
func shedReasonOf(msg string) string {
	for _, r := range []string{"vp-jobs", "vp-bytes", "payload", "device-jobs",
		"device-bytes", "rate", "farm-jobs", "farm-bytes"} {
		if strings.Contains(msg, "("+r+",") {
			return r
		}
	}
	return "other"
}

// OverloadDrill runs the overload experiment: an uncontended reference pass
// and a contended pass at oversub× the per-VP job quota, then compares the
// victim's artifacts byte for byte. iters sizes the victim workload. It
// returns an error when any part of the graceful-degradation contract is
// violated; the result carries the evidence either way.
func OverloadDrill(oversub, iters int) (*OverloadDrillResult, error) {
	if oversub <= 0 {
		oversub = 4
	}
	if iters <= 0 {
		iters = 4
	}
	res := &OverloadDrillResult{
		Oversub: oversub, Iters: iters,
		CapJobs: overloadCapJobs, CapBytes: overloadCapBytes,
	}

	ref, err := runOverloadPass(false, oversub, iters)
	if err != nil {
		return res, fmt.Errorf("overload drill (uncontended pass): %w", err)
	}
	hot, err := runOverloadPass(true, oversub, iters)
	if err != nil {
		return res, fmt.Errorf("overload drill (contended pass): %w", err)
	}

	res.Attempts = hot.attempts
	res.Admitted = hot.admitted
	res.Sheds = hot.sheds
	res.BadSheds = hot.badSheds
	res.ShedReasons = hot.shedReasons
	res.MaxQueuedJobsSeen = hot.maxJobs
	res.MaxQueuedBytesSeen = hot.maxBytes
	res.LeakJobs = hot.leakJobs
	res.LeakBytes = hot.leakBytes
	res.HealthyAfter = hot.healthy
	res.Metrics = hot.admSnap
	res.IdenticalD2H = bytes.Equal(ref.d2h, hot.d2h)
	res.IdenticalMetrics = bytes.Equal(ref.metricsJSON, hot.metricsJSON)
	res.IdenticalTrace = bytes.Equal(ref.traceJSON, hot.traceJSON)

	switch {
	case res.Sheds == 0:
		return res, fmt.Errorf("overload drill: no submissions were shed at %d× oversubscription", oversub)
	case res.BadSheds > 0:
		return res, fmt.Errorf("overload drill: %d sheds violated the typed-overload contract", res.BadSheds)
	case res.MaxQueuedJobsSeen > int64(res.CapJobs) || res.MaxQueuedBytesSeen > res.CapBytes:
		return res, fmt.Errorf("overload drill: admission gauges exceeded the caps (jobs %d/%d, bytes %d/%d)",
			res.MaxQueuedJobsSeen, res.CapJobs, res.MaxQueuedBytesSeen, res.CapBytes)
	case res.LeakJobs != 0 || res.LeakBytes != 0:
		return res, fmt.Errorf("overload drill: %d jobs / %d bytes of admission reservations leaked", res.LeakJobs, res.LeakBytes)
	case !res.IdenticalD2H || !res.IdenticalMetrics || !res.IdenticalTrace:
		return res, fmt.Errorf("overload drill: victim artifacts differ from the uncontended run (d2h=%v metrics=%v trace=%v)",
			res.IdenticalD2H, res.IdenticalMetrics, res.IdenticalTrace)
	case !res.HealthyAfter:
		return res, fmt.Errorf("overload drill: farm unhealthy after the contended pass")
	}
	return res, nil
}

// runOverloadPass serves a fresh 2-device farm over TCP and runs the victim
// workload, with the aggressor fleet active only when contended is set. The
// aggressor VP is registered in both passes — only its traffic differs — so
// the victim device sees the same registration history either way.
func runOverloadPass(contended bool, oversub, iters int) (*overloadPass, error) {
	pass := &overloadPass{shedReasons: map[string]int{}}

	opts := core.DefaultOptions()
	opts.Trace = true
	opts.Admission = core.AdmissionOptions{
		MaxQueuedJobs:        overloadCapJobs,
		MaxQueuedBytes:       overloadCapBytes,
		DeviceMaxQueuedJobs:  2 * overloadCapJobs,
		DeviceMaxQueuedBytes: 2 * overloadCapBytes,
	}
	// Fair dequeue is part of the overload posture; sized to the job quota it
	// never splits the victim's small batches.
	opts.FairShare = overloadCapJobs
	ms, err := core.NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		return nil, err
	}
	defer ms.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := ipc.ServeWithHooks(l, ms.Handle, ms.RegisterVP, ms.DisconnectVP)
	defer srv.Close()
	addr := srv.Addr().String()

	dial := func(vp int) (ipc.Client, error) {
		c, err := ipc.DialWithOptions(addr, vp, ipc.DialOptions{CallTimeout: 10 * time.Second})
		if err != nil {
			return nil, err
		}
		// A synchronous no-op forces the server past the hello, so VP
		// registration (and thus round-robin placement) happens in dial
		// order: victim → device 0, aggressor → device 1.
		if _, err := c.Call(ipc.SyncReq{}); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}

	victim, err := dial(0)
	if err != nil {
		return nil, fmt.Errorf("victim dial: %w", err)
	}
	defer victim.Close()

	// The aggressor fleet: oversub × the job quota concurrent submitters.
	// The binary server bounds one connection to 8 concurrent handlers, so
	// the fleet spreads across connections, one stream per submitter.
	submitters := oversub * overloadCapJobs
	const perConn = 8
	nConns := (submitters + perConn - 1) / perConn
	aggConns := make([]ipc.Client, nConns)
	aggDst := make([]devmem.Ptr, nConns)
	for i := range aggConns {
		c, err := dial(1)
		if err != nil {
			return nil, fmt.Errorf("aggressor dial %d: %w", i, err)
		}
		defer c.Close()
		aggConns[i] = c
		resp, err := c.Call(ipc.MallocReq{Size: 32 << 10})
		if err != nil {
			return nil, fmt.Errorf("aggressor malloc: %w", err)
		}
		aggDst[i] = resp.(ipc.MallocResp).Ptr
	}
	if d, _ := ms.Assignment(0); d != 0 {
		return nil, fmt.Errorf("victim placed on device %d, want 0", d)
	}
	if d, _ := ms.Assignment(1); d != 1 {
		return nil, fmt.Errorf("aggressor placed on device %d, want 1", d)
	}

	var (
		attempts, admitted, sheds, badSheds int64
		shedMu                              sync.Mutex
		aggErr                              atomic.Value
		stopAgg                             = make(chan struct{})
		aggWG                               sync.WaitGroup
		samplerDone                         = make(chan struct{})
	)
	if contended {
		// Gauge sampler: tracks the high-water of the admission reservations
		// while the fleet hammers the farm.
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(100 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-stopAgg:
					return
				case <-tick.C:
					for d := 0; d < ms.Devices(); d++ {
						reg := ms.Device(d).AdmissionMetrics()
						if v := reg.Gauge("core.admission.queue_jobs").Value(); v > pass.maxJobs {
							pass.maxJobs = v
						}
						if v := reg.Gauge("core.admission.queue_bytes").Value(); v > pass.maxBytes {
							pass.maxBytes = v
						}
					}
				}
			}
		}()
		small := bytes.Repeat([]byte{0xA5}, overloadSmallPayload)
		big := bytes.Repeat([]byte{0x5A}, overloadBigPayload)
		for i := 0; i < submitters; i++ {
			aggWG.Add(1)
			go func(i int) {
				defer aggWG.Done()
				c := aggConns[i/perConn]
				dst := aggDst[i/perConn]
				payload := small
				if i%2 == 1 {
					payload = big
				}
				for {
					select {
					case <-stopAgg:
						return
					default:
					}
					_, err := c.Call(ipc.H2DReq{Dst: dst, Stream: i % perConn, Data: payload})
					atomic.AddInt64(&attempts, 1)
					switch oe, ok := ipc.AsOverload(err); {
					case err == nil:
						atomic.AddInt64(&admitted, 1)
					case ok:
						atomic.AddInt64(&sheds, 1)
						if !oe.Retryable || oe.Backoff <= 0 {
							// Every aggressor payload fits the quota, so all
							// sheds must be retryable with a backoff hint.
							atomic.AddInt64(&badSheds, 1)
						}
						shedMu.Lock()
						pass.shedReasons[shedReasonOf(oe.Msg)]++
						shedMu.Unlock()
					default:
						aggErr.Store(fmt.Errorf("aggressor %d: %w", i, err))
						return
					}
				}
			}(i)
		}
		// Only start the victim once overload is established, so its whole
		// run happens under sustained pressure.
		deadline := time.Now().Add(10 * time.Second)
		for atomic.LoadInt64(&sheds) == 0 {
			if e := aggErr.Load(); e != nil {
				close(stopAgg)
				aggWG.Wait()
				return nil, e.(error)
			}
			if time.Now().After(deadline) {
				close(stopAgg)
				aggWG.Wait()
				return nil, fmt.Errorf("aggressors never overloaded the farm")
			}
			time.Sleep(100 * time.Microsecond)
		}
	} else {
		close(samplerDone)
	}

	// The victim workload, identical in both passes: a sequential vectorAdd
	// guest over the remote cudart backend, exactly the shape the remote
	// determinism suite pins.
	victimErr := func() error {
		bench, err := kernels.Get("vectorAdd")
		if err != nil {
			return err
		}
		// The context is NOT closed here: closing it closes the shared client,
		// and the connection must stay up — the victim-device snapshot below
		// races the server's disconnect hook otherwise, and the health probe
		// reuses the connection. The deferred client Close tears it down.
		ctx := cudart.NewContext(0, cudart.NewRemoteBackend(victim))
		w := bench.MakeWorkload(1)
		launch := bench.NewLaunch(w)
		launch.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			ptr, err := ctx.Malloc(w.BufBytes[decl.Name])
			if err != nil {
				return fmt.Errorf("malloc %s: %w", decl.Name, err)
			}
			launch.Bindings[decl.Name] = ptr
		}
		for it := 0; it < iters; it++ {
			// Buffer-declaration order, not map order: the copy sequence must
			// be identical across passes.
			for _, decl := range bench.Kernel.Bufs {
				data, ok := w.Inputs[decl.Name]
				if !ok {
					continue
				}
				if err := ctx.MemcpyH2D(launch.Bindings[decl.Name], data); err != nil {
					return fmt.Errorf("iter %d h2d %s: %w", it, decl.Name, err)
				}
			}
			if err := ctx.LaunchKernelAsync(it%2, launch); err != nil {
				return fmt.Errorf("iter %d launch: %w", it, err)
			}
			if err := ctx.DeviceSynchronize(); err != nil {
				return fmt.Errorf("iter %d sync: %w", it, err)
			}
		}
		out := bench.Kernel.Bufs[len(bench.Kernel.Bufs)-1].Name
		pass.d2h, err = ctx.MemcpyD2H(launch.Bindings[out], int(w.BufBytes[out]))
		return err
	}()
	if contended {
		close(stopAgg)
		aggWG.Wait()
		<-samplerDone
	}
	if victimErr != nil {
		return nil, fmt.Errorf("victim workload: %w", victimErr)
	}
	if e := aggErr.Load(); e != nil {
		return nil, e.(error)
	}
	pass.attempts = atomic.LoadInt64(&attempts)
	pass.admitted = atomic.LoadInt64(&admitted)
	pass.sheds = atomic.LoadInt64(&sheds)
	pass.badSheds = atomic.LoadInt64(&badSheds)

	// Capture the victim device's artifacts while its VP is still registered:
	// the client teardown below runs the disconnect hook asynchronously, and
	// the snapshot must not race it.
	pass.metricsJSON, err = ms.Device(0).Snapshot().JSON()
	if err != nil {
		return nil, err
	}
	pass.traceJSON, err = json.Marshal(ms.Device(0).Trace().Records())
	if err != nil {
		return nil, err
	}

	// Reservation balance: once everything drained, the farm must hold zero
	// admission reservations.
	ms.Drain()
	for d := 0; d < ms.Devices(); d++ {
		j, b := ms.Device(d).AdmissionLoad()
		pass.leakJobs += j
		pass.leakBytes += b
	}
	pass.admSnap = ms.AdmissionSnapshot()

	// Post-drill health probe: both devices must still answer a clean round
	// trip (the victim's artifacts were captured above, so this traffic does
	// not perturb them).
	pass.healthy = func() bool {
		payload := []byte{0x0F, 0xF0, 0x33, 0xCC}
		for i, c := range []ipc.Client{victim, aggConns[0]} {
			resp, err := c.Call(ipc.MallocReq{Size: 64})
			if err != nil {
				pass.healthErr = fmt.Sprintf("probe %d malloc: %v", i, err)
				return false
			}
			ptr := resp.(ipc.MallocResp).Ptr
			if _, err := c.Call(ipc.H2DReq{Dst: ptr, Data: payload}); err != nil {
				pass.healthErr = fmt.Sprintf("probe %d h2d: %v", i, err)
				return false
			}
			d, err := c.Call(ipc.D2HReq{Src: ptr, N: len(payload)})
			if err != nil {
				pass.healthErr = fmt.Sprintf("probe %d d2h: %v", i, err)
				return false
			}
			if !bytes.Equal(d.(ipc.D2HResp).Data, payload) {
				pass.healthErr = fmt.Sprintf("probe %d d2h bytes mismatch", i)
				return false
			}
		}
		return true
	}()
	return pass, nil
}
