package experiments

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
)

// The TCP drills' shared fleet. FaultDrill, OverloadDrill and the migration
// drill's overload leg all need the same scaffolding — a farm served on
// loopback the way the daemon serves it, dials whose order fixes placement,
// an aggressor fleet oversubscribing one device, a sequential vectorAdd guest
// and a post-drill health probe — so it lives here once.

// drillCallTimeout bounds every drill client call. A drill that sits for
// exactly this long has wedged something (see aggressorFleet.stop).
const drillCallTimeout = 10 * time.Second

// tcpFarm is a farm of identical Quadro 4000 devices served over loopback TCP
// through ipc.ServeEndpoint, exactly as sigmavpd serves it.
type tcpFarm struct {
	ms  *core.MultiService
	srv *ipc.Server
}

// serveFarm builds the farm and starts serving it on an ephemeral port.
func serveFarm(opts core.Options, devices int) (*tcpFarm, error) {
	gpus := make([]arch.GPU, devices)
	for i := range gpus {
		gpus[i] = arch.Quadro4000()
	}
	ms, err := core.NewMultiService(opts, gpus)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ms.Close()
		return nil, err
	}
	return &tcpFarm{ms: ms, srv: ipc.ServeEndpoint(l, ms)}, nil
}

func (f *tcpFarm) addr() string { return f.srv.Addr().String() }

func (f *tcpFarm) close() {
	f.srv.Close()
	f.ms.Close()
}

// dial connects a VP and round-trips a no-op sync, which forces the server
// past the hello: VP registration — and with it round-robin placement —
// happens in dial order.
func (f *tcpFarm) dial(vp int) (ipc.Client, error) {
	c, err := ipc.DialWithOptions(f.addr(), vp, ipc.DialOptions{CallTimeout: drillCallTimeout})
	if err != nil {
		return nil, err
	}
	if _, err := c.Call(ipc.SyncReq{}); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// probeHealth dials a clean client as vp and round-trips malloc → H2D → D2H
// on the VP's device; nil means the device still serves and returns the bytes
// it was given.
func (f *tcpFarm) probeHealth(vp int) error {
	c, err := f.dial(vp)
	if err != nil {
		return fmt.Errorf("probe vp %d dial: %w", vp, err)
	}
	defer c.Close()
	resp, err := c.Call(ipc.MallocReq{Size: 64})
	if err != nil {
		return fmt.Errorf("probe vp %d malloc: %w", vp, err)
	}
	ptr := resp.(ipc.MallocResp).Ptr
	payload := []byte{0x0F, 0xF0, 0x33, 0xCC}
	if _, err := c.Call(ipc.H2DReq{Dst: ptr, Data: payload}); err != nil {
		return fmt.Errorf("probe vp %d h2d: %w", vp, err)
	}
	d, err := c.Call(ipc.D2HReq{Src: ptr, N: len(payload)})
	if err != nil {
		return fmt.Errorf("probe vp %d d2h: %w", vp, err)
	}
	if !bytes.Equal(d.(ipc.D2HResp).Data, payload) {
		return fmt.Errorf("probe vp %d: d2h bytes mismatch", vp)
	}
	return nil
}

// aggressorsPerConn is how many submitters share one aggressor connection:
// the binary server bounds a connection to 8 concurrent handlers, so a larger
// fleet spreads across connections, one stream per submitter.
const aggressorsPerConn = 8

// aggressorFleet is one VP hammering its device with H2D copies from many
// concurrent submitters, far past its admission quota. The counters are
// wall-clock observations of the contended run; they are final once stop has
// returned.
type aggressorFleet struct {
	farm       *tcpFarm
	submitters int
	conns      []ipc.Client
	dst        []devmem.Ptr // one 32 KiB target buffer per connection

	attempts, admitted, sheds atomic.Int64
	// badSheds counts sheds that broke the contract: every aggressor payload
	// fits the quota, so each shed must be retryable and carry a backoff hint.
	badSheds atomic.Int64

	mu          sync.Mutex
	shedReasons map[string]int
	err         error // first submitter error that was not an overload shed

	// maxJobs/maxBytes are the sampled high-water of the per-device admission
	// gauges while the fleet ran.
	maxJobs, maxBytes int64

	halt chan struct{}
	wg   sync.WaitGroup
}

// dialAggressors connects the aggressor VP — enough connections for the
// submitters, each with its target buffer — without sending any copy yet, so
// a reference pass can register the VP and leave it idle.
func (f *tcpFarm) dialAggressors(vp, submitters int) (*aggressorFleet, error) {
	a := &aggressorFleet{
		farm: f, submitters: submitters,
		shedReasons: map[string]int{}, halt: make(chan struct{}),
	}
	nConns := (submitters + aggressorsPerConn - 1) / aggressorsPerConn
	for i := 0; i < nConns; i++ {
		c, err := f.dial(vp)
		if err != nil {
			a.close()
			return nil, fmt.Errorf("aggressor dial %d: %w", i, err)
		}
		a.conns = append(a.conns, c)
		resp, err := c.Call(ipc.MallocReq{Size: 32 << 10})
		if err != nil {
			a.close()
			return nil, fmt.Errorf("aggressor malloc: %w", err)
		}
		a.dst = append(a.dst, resp.(ipc.MallocResp).Ptr)
	}
	return a, nil
}

func (a *aggressorFleet) close() {
	for _, c := range a.conns {
		c.Close()
	}
}

// start launches the submitters — submitter i copies payloads[i%len] in a
// closed loop on its own stream — plus the gauge sampler, and returns once
// the first submission has been shed, so whatever the caller runs next runs
// under established overload. On error the fleet is already stopped.
func (a *aggressorFleet) start(payloads ...[]byte) error {
	a.wg.Add(1)
	go a.sample()
	for i := 0; i < a.submitters; i++ {
		a.wg.Add(1)
		go a.submit(i, payloads[i%len(payloads)])
	}
	deadline := time.Now().Add(drillCallTimeout)
	for a.sheds.Load() == 0 {
		if a.firstErr() != nil {
			return a.stop()
		}
		if time.Now().After(deadline) {
			a.stop()
			return fmt.Errorf("aggressors never overloaded the farm")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (a *aggressorFleet) submit(i int, payload []byte) {
	defer a.wg.Done()
	c, dst := a.conns[i/aggressorsPerConn], a.dst[i/aggressorsPerConn]
	for {
		select {
		case <-a.halt:
			return
		default:
		}
		_, err := c.Call(ipc.H2DReq{Dst: dst, Stream: i % aggressorsPerConn, Data: payload})
		a.attempts.Add(1)
		switch oe, ok := ipc.AsOverload(err); {
		case err == nil:
			a.admitted.Add(1)
		case ok:
			a.sheds.Add(1)
			if !oe.Retryable || oe.Backoff <= 0 {
				a.badSheds.Add(1)
			}
			a.mu.Lock()
			a.shedReasons[shedReasonOf(oe.Msg)]++
			a.mu.Unlock()
		default:
			a.mu.Lock()
			if a.err == nil {
				a.err = fmt.Errorf("aggressor %d: %w", i, err)
			}
			a.mu.Unlock()
			return
		}
	}
}

// sample tracks the high-water of the admission reservations on every device
// while the fleet hammers the farm.
func (a *aggressorFleet) sample() {
	defer a.wg.Done()
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-a.halt:
			return
		case <-tick.C:
			for d := 0; d < a.farm.ms.Devices(); d++ {
				reg := a.farm.ms.Device(d).AdmissionMetrics()
				a.maxJobs = max(a.maxJobs, reg.Gauge("core.admission.queue_jobs").Value())
				a.maxBytes = max(a.maxBytes, reg.Gauge("core.admission.queue_bytes").Value())
			}
		}
	}
}

func (a *aggressorFleet) firstErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// stop halts the fleet, waits for every submitter to come home, and returns
// the first error one of them hit that was not an overload shed (nil for a
// fleet that was never started). A submitter is only released when its
// admitted copy dispatches, and a device dispatches only once every VP
// registered on it is parked in a call — so a guest that shares the
// aggressors' device must hang up (closing its connection deregisters it)
// before stop is called, or the wait lasts until the submitters' call
// deadlines fire and stop reports their timeouts.
func (a *aggressorFleet) stop() error {
	close(a.halt)
	a.wg.Wait()
	return a.firstErr()
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

// vectorAddGuest is the drills' guest application: a sequential vectorAdd
// over a cudart context, the shape the remote determinism suite pins.
type vectorAddGuest struct {
	ctx    *cudart.Context
	bench  *kernels.Benchmark
	w      *kernels.Workload
	launch *hostgpu.Launch
}

// newVectorAddGuest allocates the kernel's buffers through the context. The
// guest never closes the context: that would close the client under it, and
// who owns the connection is the caller's business.
func newVectorAddGuest(ctx *cudart.Context) (*vectorAddGuest, error) {
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		return nil, err
	}
	g := &vectorAddGuest{ctx: ctx, bench: bench, w: bench.MakeWorkload(1)}
	g.launch = bench.NewLaunch(g.w)
	g.launch.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		ptr, err := ctx.Malloc(g.w.BufBytes[decl.Name])
		if err != nil {
			return nil, fmt.Errorf("malloc %s: %w", decl.Name, err)
		}
		g.launch.Bindings[decl.Name] = ptr
	}
	return g, nil
}

// run performs iters iterations of copy-in → launch → sync and returns the
// output buffer's bytes. after, when non-nil, runs once each iteration has
// synced — a point where the guest has nothing in flight, so the hook may
// probe the buffers or have the VP migrated.
func (g *vectorAddGuest) run(iters int, after func(it int) error) ([]byte, error) {
	bufs := g.bench.Kernel.Bufs
	for it := 0; it < iters; it++ {
		// Buffer-declaration order, not map order: the copy sequence must be
		// identical from run to run.
		for _, decl := range bufs {
			data, ok := g.w.Inputs[decl.Name]
			if !ok {
				continue
			}
			if err := g.ctx.MemcpyH2D(g.launch.Bindings[decl.Name], data); err != nil {
				return nil, fmt.Errorf("iter %d h2d %s: %w", it, decl.Name, err)
			}
		}
		if err := g.ctx.LaunchKernelAsync(it%2, g.launch); err != nil {
			return nil, fmt.Errorf("iter %d launch: %w", it, err)
		}
		if err := g.ctx.DeviceSynchronize(); err != nil {
			return nil, fmt.Errorf("iter %d sync: %w", it, err)
		}
		if after != nil {
			if err := after(it); err != nil {
				return nil, err
			}
		}
	}
	out := bufs[len(bufs)-1].Name
	return g.ctx.MemcpyD2H(g.launch.Bindings[out], g.w.BufBytes[out])
}
