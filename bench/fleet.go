package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
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
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/metrics"
)

// wireSpec describes one closed-loop TCP workload: a fleet of guests, each a
// goroutine with one loopback connection, looping rounds of
// (H2D inputs, launches, D2H outputs) against an in-process farm.
type wireSpec struct {
	apps     []string // dealt to the fleet's slots in order
	vps      int
	scale    int
	devices  int
	launches int // kernel launches per round
	// admission turns the per-VP quotas on at values an honest
	// one-request-in-flight guest never reaches, so the accounting runs but
	// nothing is shed and no random backoff enters the timing.
	admission bool
	// migrateEvery > 0 live-migrates one VP each time the fleet has
	// completed that many more requests.
	migrateEvery int64
	// reqPerSecond sizes the fixed amount of work: a run of -seconds s serves
	// reqPerSecond × s requests, whatever the host's speed that day. It is
	// this box's throughput at the commit that added the benchmark.
	reqPerSecond float64
}

// app is one benchmark at one scale with its oracle: the outputs of the
// native implementation on the generated inputs.
type app struct {
	bench *kernels.Benchmark
	work  *kernels.Workload
	want  map[string][]byte // output buffer → reference bytes
	// rezero lists buffers a round must clear before launching, because the
	// kernel accumulates into them (its second run differs from its first).
	rezero []string
	minstr float64 // simulated instructions per launch, millions
}

// loadApp generates the inputs and counts the instructions of one launch.
func loadApp(name string, scale int) (*app, error) {
	b, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	a := &app{bench: b, work: b.MakeWorkload(scale)}
	sigma, err := b.Prog.RawSigma(kir.Launch{NThreads: a.work.Threads(), Params: a.work.Params}, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: instruction count: %w", name, err)
	}
	a.minstr = sigma.Sum() / 1e6
	return a, nil
}

// outputs runs exec on a fresh environment holding the inputs and returns the
// bytes of every output buffer, plus the environment for a second run.
func (a *app) outputs(env *kpl.Env, exec func(*kpl.Env) error) (map[string][]byte, error) {
	if err := exec(env); err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", a.bench.Name, err)
	}
	m := map[string][]byte{}
	for _, name := range a.work.OutBufs {
		raw := make([]byte, a.work.BufBytes[name])
		devmem.BufferToBytes(env.Bufs[name], raw)
		m[name] = raw
	}
	return m, nil
}

// newApp is loadApp plus the oracle: the reference outputs, and which buffers
// the kernel accumulates into (found by running the reference twice).
func newApp(name string, scale int) (*app, error) {
	a, err := loadApp(name, scale)
	if err != nil {
		return nil, err
	}
	env, err := kernels.BuildEnv(a.bench, a.work)
	if err != nil {
		return nil, err
	}
	if a.want, err = a.outputs(env, a.bench.Native); err != nil {
		return nil, err
	}
	again, err := a.outputs(env, a.bench.Native)
	if err != nil {
		return nil, err
	}
	for name, raw := range again {
		if _, isInput := a.work.Inputs[name]; !isInput && !bytes.Equal(raw, a.want[name]) {
			a.rezero = append(a.rezero, name)
		}
	}
	return a, nil
}

// sample is one completed guest request on the measured clock.
type sample struct {
	end  int64 // ns since the run's epoch
	lat  int64 // ns
	kind uint8
}

// guest is one VP: its application, its device buffers (guest pointers) and
// the cudart context it programs against.
type guest struct {
	id     int
	app    *app
	ctx    *cudart.Context
	launch *hostgpu.Launch
	ptrs   map[string]devmem.Ptr
	tr     *tracer

	samples  []sample
	launches int64
	failed   int64
}

// call times one cudart call: always for the latency sample, and as a
// cudart.<kind> span when the fleet is traced.
func (g *guest) call(epoch time.Time, kind uint8, fn func() error) {
	s := g.tr.begin(g.id, kind)
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	g.tr.end(g.id, s)
	g.samples = append(g.samples, sample{end: int64(t1.Sub(epoch)), lat: int64(t1.Sub(t0)), kind: kind})
	if err != nil {
		g.failed++
	}
}

// round is one application iteration. Every D2H payload is compared with the
// reference byte for byte; a mismatch is a failed operation.
func (g *guest) round(epoch time.Time, launches int) {
	w := g.app.work
	for _, decl := range g.app.bench.Kernel.Bufs {
		if in, ok := w.Inputs[decl.Name]; ok {
			g.call(epoch, kindH2D, func() error { return g.ctx.MemcpyH2D(g.ptrs[decl.Name], in) })
		}
	}
	for i := 0; i < launches; i++ {
		for _, name := range g.app.rezero {
			g.call(epoch, kindMemset, func() error { return g.ctx.Memset(g.ptrs[name], w.BufBytes[name], 0) })
		}
		g.call(epoch, kindLaunch, func() error { return g.ctx.LaunchKernel(g.launch) })
		g.launches++
	}
	for _, name := range w.OutBufs {
		g.call(epoch, kindD2H, func() error {
			got, err := g.ctx.MemcpyD2H(g.ptrs[name], w.BufBytes[name])
			if err == nil && !bytes.Equal(got, g.app.want[name]) {
				err = fmt.Errorf("vp %d %s: D2H of %q differs from the reference", g.id, g.app.bench.Name, name)
			}
			return err
		})
	}
}

// countingListener counts the bytes of every accepted connection, both ways.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// fleet is a booted farm with its connected guests, ready to serve.
type fleet struct {
	spec      wireSpec
	ms        *core.MultiService
	srv       *ipc.Server
	transport *metrics.Registry // ipc.server.* counters
	client    *metrics.Registry // cudart.* retry counters
	wire      atomic.Int64
	guests    []*guest
	tr        *tracer // nil for an untraced fleet
	rng       *rand.Rand
	// migrateOrder is the seeded order in which live migrations visit the
	// VPs; each moves its VP to the next device.
	migrateOrder []int
}

// bootFleet is everything before the timed window: farm construction the way
// sigmavpd does it, listener, dials in seeded order (which fixes round-robin
// placement), allocations, input generation and reference outputs.
func bootFleet(spec wireSpec, seed int64, traced bool) (*fleet, error) {
	f := &fleet{spec: spec, transport: metrics.New(), client: metrics.New(), rng: rand.New(rand.NewSource(seed))}
	opts := core.DefaultOptions() // ExecFull, interleave, coalesce, pipeline
	if spec.admission {
		opts.Admission = core.AdmissionOptions{MaxQueuedJobs: 4, MaxQueuedBytes: 8 << 20}
	}
	gpus := make([]arch.GPU, spec.devices)
	for i := range gpus {
		gpus[i] = arch.Quadro4000()
	}
	ms, err := core.NewMultiServicePlaced(opts, gpus, core.PlaceRoundRobin)
	if err != nil {
		return nil, err
	}
	f.ms = ms
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ms.Close()
		return nil, err
	}
	var ep ipc.Endpoint = ms
	if traced {
		f.tr = newTracer(spec.vps + spec.devices) // guests, then one replay slot per device
		ep = &tracedEndpoint{Endpoint: ms, t: f.tr}
	}
	f.srv = ipc.ServeEndpoint(countingListener{Listener: l, bytes: &f.wire}, ep)
	f.srv.SetMetrics(f.transport)

	// Slot k dials k-th, so it lands on device k mod devices, and runs
	// application k mod len(apps): which applications share a device is the
	// same for every seed. The seed decides which VP id fills each slot and
	// in which order the VPs are later migrated.
	apps := map[string]*app{}
	for k, id := range f.rng.Perm(spec.vps) {
		name := spec.apps[k%len(spec.apps)]
		if apps[name] == nil {
			if apps[name], err = newApp(name, spec.scale); err != nil {
				f.close()
				return nil, err
			}
		}
		g, err := f.connect(id, apps[name])
		if err != nil {
			f.close()
			return nil, err
		}
		f.guests = append(f.guests, g)
	}
	f.migrateOrder = f.rng.Perm(spec.vps)
	return f, nil
}

func (f *fleet) connect(id int, a *app) (*guest, error) {
	c, err := ipc.DialWithOptions(f.srv.Addr().String(), id, ipc.DialOptions{})
	if err != nil {
		return nil, err
	}
	if f.tr != nil {
		c = traceClient(c, f.tr, id)
	}
	back := cudart.NewRemoteBackendOpts(c, cudart.RemoteOptions{Retries: cudart.DefaultRetries, Metrics: f.client})
	g := &guest{id: id, app: a, ctx: cudart.NewContext(id, back), ptrs: map[string]devmem.Ptr{}, tr: f.tr}
	g.launch = a.bench.NewLaunch(a.work)
	for _, decl := range a.bench.Kernel.Bufs {
		p, err := g.ctx.Malloc(a.work.BufBytes[decl.Name])
		if err != nil {
			g.ctx.Close()
			return nil, err
		}
		g.ptrs[decl.Name] = p
	}
	g.launch.Bindings = g.ptrs
	return g, nil
}

// close tears the farm down; guests still connected are hung up first.
func (f *fleet) close() {
	for _, g := range f.guests {
		g.ctx.Close()
	}
	f.srv.Shutdown(2 * time.Second)
	f.ms.Close()
}

// mark is the host-side state at a window edge.
type mark struct {
	at       time.Time
	cpu      float64
	mallocs  uint64
	alloc    uint64
	gcCPU    float64
	wire     int64
	requests int64
}

// served is what one serve phase produced.
type served struct {
	epoch      time.Time
	from, to   mark // edges of the measured window (after warm-up)
	livePauses []float64
	failed     int64
}

// serve runs the closed loop for a fixed amount of work: every guest loops
// rounds until the fleet has completed warm+measure requests, then hangs up so
// the others are not left waiting for it at the VP-Control barrier. The
// measured window opens when the warm-th request completes. With hostStats the
// window edges also carry allocator and CPU counters (a stop-the-world read,
// so only the traced invocation asks for it).
func (f *fleet) serve(warm, measure int64, hostStats bool) served {
	var done atomic.Int64 // fleet-wide completed requests
	out := served{epoch: time.Now()}
	takeMark := func() mark {
		m := mark{at: time.Now(), wire: f.wire.Load(), requests: f.transport.Counter("ipc.server.requests").Value()}
		if hostStats {
			m.cpu, m.mallocs, m.alloc, m.gcCPU = hostCounters()
		}
		return m
	}

	var wg sync.WaitGroup
	for _, g := range f.guests {
		wg.Add(1)
		go func(g *guest) {
			defer wg.Done()
			for done.Load() < warm+measure {
				n := len(g.samples)
				g.round(out.epoch, f.spec.launches)
				done.Add(int64(len(g.samples) - n))
			}
			g.ctx.Close()
		}(g)
	}

	// Live migrations fire at fixed fleet-wide request counts, visiting the
	// VPs in seeded order.
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		if f.spec.migrateEvery <= 0 {
			return
		}
		// A run too short to reach the first count still migrates once.
		every := min(f.spec.migrateEvery, (warm+measure)/2)
		for i, next := 0, every; next < warm+measure; {
			if done.Load() < next {
				time.Sleep(time.Millisecond)
				continue
			}
			next += every
			vp := f.migrateOrder[i%len(f.migrateOrder)]
			i++
			cur, _ := f.ms.Assignment(vp)
			t0 := time.Now()
			if err := f.ms.Migrate(vp, (cur+1)%f.spec.devices); err != nil {
				out.failed++
			}
			out.livePauses = append(out.livePauses, time.Since(t0).Seconds()*1e3)
		}
	}()

	waitFor := func(n int64) {
		for done.Load() < n {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(warm)
	if f.tr != nil {
		f.tr.on.Store(true)
	}
	out.from = takeMark()
	waitFor(warm + measure)
	out.to = takeMark()
	if f.tr != nil {
		f.tr.on.Store(false)
	}
	wg.Wait()
	<-migDone
	for _, g := range f.guests {
		out.failed += g.failed
	}
	return out
}

// window summarises the guest samples that completed inside the measured
// interval.
type window struct {
	requests   int
	seconds    float64
	reqPerS    float64
	minstrPerS float64
	p50        float64           // ms: per-kind medians, weighted by the kinds' request counts
	p99        float64           // ms, all request kinds
	kindP50    map[uint8]float64 // ms
}

// summarise covers [from, to) on the run's clock. minstr[i] is the simulated
// instruction count, in millions, of one launch of samples[i]'s guest.
func summarise(samples [][]sample, minstr []float64, from, to int64) window {
	w := window{kindP50: map[uint8]float64{}, seconds: float64(to-from) / 1e9}
	var lat []float64
	var instr float64
	byKind := map[uint8][]float64{}
	for g, vs := range samples {
		for _, s := range vs {
			if s.end < from || s.end >= to {
				continue
			}
			ms := float64(s.lat) / 1e6
			lat = append(lat, ms)
			byKind[s.kind] = append(byKind[s.kind], ms)
			if s.kind == kindLaunch {
				instr += minstr[g]
			}
		}
	}
	w.requests = len(lat)
	w.reqPerS, w.minstrPerS = ratio(float64(len(lat)), w.seconds), ratio(instr, w.seconds)
	// The kinds of request have latency distributions of their own, and on
	// copy-stream exactly half the requests are H2D: the all-kinds median
	// sat on the edge between two of them and jumped by 30 % from run to
	// run. The typical latency reported is therefore the medians of the
	// kinds, averaged by how many requests each kind had.
	for k, l := range byKind {
		w.kindP50[k] = quantile(l, 0.5)
		w.p50 += w.kindP50[k] * float64(len(l)) / float64(len(lat))
	}
	w.p99 = quantile(lat, 0.99)
	return w
}
