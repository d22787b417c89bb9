package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/ipc"
	"repro/internal/metrics"
	"repro/internal/vp"
)

// FaultDrillResult summarizes one fault-injection drill: a fleet of VPs
// driving the full TCP IPC stack while the client transport injects seeded
// drop/delay/corrupt/disconnect faults. The drill checks the ΣVP
// fault-tolerance contract — faults may fail individual guest operations
// (with typed, retryable errors), but they must never corrupt delivered
// data, wedge the service, or take down other VPs.
type FaultDrillResult struct {
	Faults ipc.FaultConfig
	VPs    int
	Iters  int

	// Per-VP outcome: empty string = clean run.
	Errors []string
	// Corruptions counts H2D→D2H round trips whose bytes came back wrong —
	// the invariant the request-ID protocol must keep at zero.
	Corruptions int
	// HealthyAfter reports whether a clean (fault-free) client completed a
	// round trip after the drill.
	HealthyAfter bool
	// Metrics is the drill's observability snapshot: transport counters,
	// injected faults, retries, and per-job events from the service.
	Metrics metrics.Snapshot
}

// Completed returns how many VPs finished without any error.
func (r *FaultDrillResult) Completed() int {
	n := 0
	for _, e := range r.Errors {
		if e == "" {
			n++
		}
	}
	return n
}

func (r *FaultDrillResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection drill: %d VPs × %d iters over TCP IPC\n", r.VPs, r.Iters)
	fmt.Fprintf(&b, "  faults: seed=%d drop=%.2f delay=%.2f(max %v) corrupt=%.2f disconnect=%.2f\n",
		r.Faults.Seed, r.Faults.Drop, r.Faults.Delay, r.Faults.MaxDelay, r.Faults.Corrupt, r.Faults.Disconnect)
	for i, e := range r.Errors {
		status := "ok"
		if e != "" {
			status = "failed: " + e
		}
		fmt.Fprintf(&b, "  vp%-3d %s\n", i, status)
	}
	fmt.Fprintf(&b, "  completed %d/%d VPs, data corruptions: %d, service healthy after drill: %v\n",
		r.Completed(), r.VPs, r.Corruptions, r.HealthyAfter)
	fmt.Fprintf(&b, "  observed: %d calls, %d retries, %d reconnects; injected faults: drop=%d corrupt=%d disconnect=%d delay=%d\n",
		r.Metrics.CounterValue("ipc.client.calls"),
		r.Metrics.CounterValue("cudart.retries"),
		r.Metrics.CounterValue("ipc.client.reconnects"),
		r.Metrics.CounterValue("ipc.faults.drop"),
		r.Metrics.CounterValue("ipc.faults.corrupt"),
		r.Metrics.CounterValue("ipc.faults.disconnect"),
		r.Metrics.CounterValue("ipc.faults.delay"))
	return b.String()
}

// FaultDrill runs vps virtual platforms against an in-process one-device farm
// — the daemon's default shape — over the real TCP transport, with the fault
// injector configured by spec (see ipc.ParseFaults) on every VP's connection.
// Each VP performs iters iterations of an H2D→launch→D2H cycle; H2D/D2H byte
// equality is checked on every successful round trip. Individual VPs are
// allowed to fail — that is the point of the drill — but data corruption, a
// wedged service, or an unhealthy post-drill server fail it. The seeded
// faults must surface as typed errors (a corrupted frame header fails the
// length or type check; a dropped frame times out) while delivered bytes stay
// intact.
func FaultDrill(spec string, vps, iters int) (*FaultDrillResult, error) {
	cfg, err := ipc.ParseFaults(spec)
	if err != nil {
		return nil, err
	}
	if vps <= 0 {
		vps = 4
	}
	if iters <= 0 {
		iters = 4
	}

	// One registry collects the transport, fault-injector and retry counters
	// of the server and every client; the farm's own registries are merged in
	// at the end.
	reg := metrics.New()
	farm, err := serveFarm(core.DefaultOptions(), 1)
	if err != nil {
		return nil, err
	}
	defer farm.close()
	farm.srv.SetMetrics(reg)

	res := &FaultDrillResult{Faults: cfg, VPs: vps, Iters: iters, Errors: make([]string, vps)}
	var corruptions atomic.Int64

	// Each VP runs the guest over its own faulty connection; a VP whose hello
	// was eaten by a fault is recorded and sits the drill out.
	type outcome struct {
		id  int
		err error
	}
	outcomes := make(chan outcome, vps)
	running := 0
	for id := 0; id < vps; id++ {
		faults := cfg
		faults.Seed = cfg.Seed + int64(id)*7919 // distinct deterministic schedule per VP
		c, err := ipc.DialWithOptions(farm.addr(), id, ipc.DialOptions{
			CallTimeout: 500 * time.Millisecond,
			BackoffBase: time.Millisecond,
			BackoffCap:  20 * time.Millisecond,
			Faults:      &faults,
			Metrics:     reg,
		})
		if err != nil {
			res.Errors[id] = fmt.Sprintf("dial: %v", err)
			continue
		}
		defer c.Close()
		v := vp.New(id, arch.ARMVersatile(),
			cudart.NewContext(id, cudart.NewRemoteBackendOpts(c, cudart.RemoteOptions{Retries: cudart.DefaultRetries, Metrics: reg})))
		running++
		go func() {
			outcomes <- outcome{v.ID, v.Run(func(v *vp.VP) error {
				// Hang up when done, so a finished VP stops counting as
				// running-but-never-stopped for the VPs still at work.
				defer v.Ctx.Close()
				g, err := newVectorAddGuest(v.Ctx)
				if err != nil {
					return err
				}
				// Round-trip integrity probe after every iteration: what was
				// written must read back byte-identical despite the faults.
				probe := g.bench.Kernel.Bufs[0].Name
				_, err = g.run(iters, func(it int) error {
					in := g.w.Inputs[probe]
					back, err := v.Ctx.MemcpyD2H(g.launch.Bindings[probe], len(in))
					if err != nil {
						return fmt.Errorf("iter %d d2h: %w", it, err)
					}
					if !bytes.Equal(back, in) {
						corruptions.Add(1)
					}
					return nil
				})
				return err
			})}
		}()
	}

	// Per-VP failures are expected under faults; they are recorded, not fatal.
	wedged := time.After(2 * time.Minute)
	for ; running > 0; running-- {
		select {
		case o := <-outcomes:
			if o.err != nil {
				res.Errors[o.id] = o.err.Error()
			}
		case <-wedged:
			return nil, fmt.Errorf("fault drill wedged: fleet did not finish within 2m")
		}
	}
	res.Corruptions = int(corruptions.Load())

	// Post-drill health check with a clean client on a fresh VP.
	res.HealthyAfter = farm.probeHealth(vps+1) == nil
	res.Metrics = metrics.MergeSnapshots(farm.ms.Snapshot(), reg.Snapshot())

	if res.Corruptions > 0 {
		return res, fmt.Errorf("fault drill: %d corrupted round trips delivered as success", res.Corruptions)
	}
	if !res.HealthyAfter {
		return res, fmt.Errorf("fault drill: service unhealthy after drill")
	}
	return res, nil
}
