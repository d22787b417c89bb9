package experiments

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
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

// FaultDrill runs vps virtual platforms against an in-process ΣVP service
// over the real TCP transport, with the fault injector configured by spec
// (see ipc.ParseFaults) on every VP's connection. Each VP performs iters
// iterations of an H2D→launch→D2H cycle; H2D/D2H byte equality is checked
// on every successful round trip. Individual VPs are allowed to fail — that
// is the point of the drill — but data corruption, a wedged service, or an
// unhealthy post-drill server fail it. The seeded faults must surface as
// typed errors (a corrupted frame header fails the length or type check; a
// dropped frame times out) while delivered bytes stay intact.
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

	reg := metrics.New()
	opts := core.DefaultOptions()
	opts.Metrics = reg
	svc := core.NewService(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := ipc.ServeWithHooks(l, svc.Handle, svc.RegisterVP, svc.DisconnectVP)
	srv.SetMetrics(reg)
	defer srv.Close()
	addr := srv.Addr().String()

	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		return nil, err
	}

	res := &FaultDrillResult{Faults: cfg, VPs: vps, Iters: iters, Errors: make([]string, vps)}
	corruptions := make([]int, vps)

	dialVP := func(id int) (ipc.Client, error) {
		faults := cfg
		faults.Seed = cfg.Seed + int64(id)*7919 // distinct deterministic schedule per VP
		return ipc.DialWithOptions(addr, id, ipc.DialOptions{
			CallTimeout: 500 * time.Millisecond,
			BackoffBase: time.Millisecond,
			BackoffCap:  20 * time.Millisecond,
			Faults:      &faults,
			Metrics:     reg,
		})
	}

	fleet := &vp.Fleet{}
	clients := make([]ipc.Client, vps)
	for id := 0; id < vps; id++ {
		c, err := dialVP(id)
		if err != nil {
			// The hello itself was eaten by a fault; record and park a VP
			// with no context so indices stay aligned.
			res.Errors[id] = fmt.Sprintf("dial: %v", err)
			fleet.VPs = append(fleet.VPs, vp.New(id, arch.ARMVersatile(), nil))
			continue
		}
		clients[id] = c
		fleet.VPs = append(fleet.VPs,
			vp.New(id, arch.ARMVersatile(),
				cudart.NewContext(id, cudart.NewRemoteBackendMetrics(c, cudart.DefaultRetries, reg))))
	}
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()

	app := func(v *vp.VP) error {
		if clients[v.ID] == nil {
			return nil // dial already failed; outcome recorded
		}
		defer v.Ctx.Close()
		w := bench.MakeWorkload(1)
		launch := bench.NewLaunch(w)
		launch.Bindings = map[string]devmem.Ptr{}
		for _, decl := range bench.Kernel.Bufs {
			ptr, err := v.Ctx.Malloc(w.BufBytes[decl.Name])
			if err != nil {
				return fmt.Errorf("malloc %s: %w", decl.Name, err)
			}
			launch.Bindings[decl.Name] = ptr
		}
		probe := launch.Bindings[bench.Kernel.Bufs[0].Name]
		for it := 0; it < iters; it++ {
			for name, data := range w.Inputs {
				if err := v.Ctx.MemcpyH2D(launch.Bindings[name], data); err != nil {
					return fmt.Errorf("iter %d h2d %s: %w", it, name, err)
				}
			}
			if err := v.Ctx.LaunchKernel(launch); err != nil {
				return fmt.Errorf("iter %d launch: %w", it, err)
			}
			// Round-trip integrity probe: what we wrote must read back
			// byte-identical despite the fault schedule.
			in := w.Inputs[bench.Kernel.Bufs[0].Name]
			back, err := v.Ctx.MemcpyD2H(probe, len(in))
			if err != nil {
				return fmt.Errorf("iter %d d2h: %w", it, err)
			}
			if !bytes.Equal(back, in) {
				corruptions[v.ID]++
			}
		}
		return nil
	}

	// Per-VP failures are expected under faults; they are recorded, not
	// fatal. Fleet.Run's aggregate is only consulted per VP below.
	done := make(chan struct{})
	errsCh := make(chan []string, 1)
	go func() {
		defer close(done)
		perVP := make([]string, vps)
		var inner vp.Fleet
		inner.VPs = fleet.VPs
		// Run each VP and capture its own error.
		type res struct {
			id  int
			err error
		}
		ch := make(chan res, vps)
		for _, v := range inner.VPs {
			go func(v *vp.VP) {
				if clients[v.ID] == nil {
					ch <- res{v.ID, nil}
					return
				}
				ch <- res{v.ID, v.Run(app)}
			}(v)
		}
		for i := 0; i < vps; i++ {
			r := <-ch
			if r.err != nil {
				perVP[r.id] = r.err.Error()
			}
		}
		errsCh <- perVP
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return nil, fmt.Errorf("fault drill wedged: fleet did not finish within 2m")
	}
	perVP := <-errsCh
	for id, e := range perVP {
		if e != "" && res.Errors[id] == "" {
			res.Errors[id] = e
		}
		res.Corruptions += corruptions[id]
	}

	// Post-drill health check with a clean client.
	clean, err := ipc.DialWithOptions(addr, vps+1, ipc.DialOptions{CallTimeout: 5 * time.Second})
	if err == nil {
		defer clean.Close()
		if resp, err := clean.Call(ipc.MallocReq{Size: 64}); err == nil {
			payload := []byte{0x5A, 0xA5, 0x0F, 0xF0}
			ptr := resp.(ipc.MallocResp).Ptr
			if _, err := clean.Call(ipc.H2DReq{Dst: ptr, Data: payload}); err == nil {
				if d, err := clean.Call(ipc.D2HReq{Src: ptr, N: len(payload)}); err == nil {
					res.HealthyAfter = bytes.Equal(d.(ipc.D2HResp).Data, payload)
				}
			}
		}
	}

	res.Metrics = reg.Snapshot()

	if res.Corruptions > 0 {
		return res, fmt.Errorf("fault drill: %d corrupted round trips delivered as success", res.Corruptions)
	}
	if !res.HealthyAfter {
		return res, fmt.Errorf("fault drill: service unhealthy after drill")
	}
	return res, nil
}
