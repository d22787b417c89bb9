package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arch"
	"repro/internal/ipc"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// PlacementPolicy selects how a MultiService assigns a newly seen VP to a
// host GPU. Every policy is deterministic for a fixed registration order:
// scores are derived from service state mutated only under the MultiService
// lock, and every tie breaks on the lowest device index.
type PlacementPolicy uint8

// Placement policies.
const (
	// PlaceRoundRobin cycles through the devices in index order — the
	// deterministic default, and what the other policies degrade to when
	// all devices are idle and equally provisioned.
	PlaceRoundRobin PlacementPolicy = iota
	// PlaceLeastLoaded scores each device by its queued work and its
	// accumulated hostgpu busy time (simulated seconds), picking the least
	// loaded; assigned-VP count breaks score ties so an idle fleet still
	// spreads out.
	PlaceLeastLoaded
	// PlaceMemAware picks the device with the most devmem headroom at
	// registration (capacity − allocated bytes), so a VP with a heavy
	// resident working set does not land on an already-crowded device;
	// assigned-VP count breaks headroom ties.
	PlaceMemAware
)

// String returns the policy's flag vocabulary name.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceLeastLoaded:
		return "least-loaded"
	case PlaceMemAware:
		return "mem-aware"
	}
	return "round-robin"
}

// ParsePlacement maps a flag value onto a PlacementPolicy.
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch s {
	case "", "rr", "round-robin", "roundrobin":
		return PlaceRoundRobin, nil
	case "least-loaded", "leastloaded", "load":
		return PlaceLeastLoaded, nil
	case "mem-aware", "memaware", "mem":
		return PlaceMemAware, nil
	}
	return PlaceRoundRobin, fmt.Errorf("core: unknown placement policy %q (want round-robin, least-loaded, or mem-aware)", s)
}

// MultiService multiplexes SEVERAL host GPUs among the VPs — the paper's
// full premise ("ΣVP multiplexes the host GPUs"). VPs are partitioned across
// devices at registration by a pluggable placement policy, the way the
// prototype's Job Dispatcher "links the requests to the GPU driver library
// on the host machine": jobs of one VP always run on the VP's device, so
// per-VP ordering needs no cross-device synchronization, and each device
// runs its own Re-scheduler pass (interleaving and coalescing happen among
// the VPs sharing a device).
//
// The service is safe for concurrent use: registration, lookup, and
// disconnect may race freely from connection handlers (the IPC server calls
// RegisterVP/DisconnectVP from per-connection goroutines). It also
// implements ipc-servable request handling — Handle routes each request to
// the owning device, so `ipc.ServeEndpoint(l, multi)` serves a whole GPU
// farm over one listener with the device assignment decided at VP hello,
// invisible to the client.
//
// Each device service owns a private metrics registry so same-named counters
// never collide across devices (a shared registry silently double-counted
// "hostgpu.*" and "sched.*" families); the farm owns one more for what
// belongs to no device. Snapshot and HostSnapshot expose them namespaced per
// device plus an unprefixed aggregate.
type MultiService struct {
	services  []*Service
	placement PlacementPolicy

	mu      sync.RWMutex
	byVP    map[int]int // VP → device index; sticky across reconnects
	vpCount []int       // VPs ever assigned per device (placement tie-break)
	nextRR  int         // round-robin cursor

	// adm is the farm's one admission gate, shared by its devices (nil with
	// Options.Admission zero). Lock order: mu, then the gate's.
	adm *admission

	// gates are the per-VP migration gates: request handling holds a VP's
	// gate shared, Migrate holds it exclusive (see migrate.go).
	gateMu sync.Mutex
	gates  map[int]*sync.RWMutex

	// metrics is the farm registry: farm-cap sheds, placement refusals,
	// migrations and, when served, the transport — host families all.
	metrics *metrics.Registry
}

// NewMultiService builds one service per host GPU descriptor with the
// default round-robin placement. Options apply to every device; each device
// records into its own registry (see MultiService.Snapshot).
func NewMultiService(opts Options, gpus []arch.GPU) (*MultiService, error) {
	return NewMultiServicePlaced(opts, gpus, PlaceRoundRobin)
}

// NewMultiServicePlaced is NewMultiService with an explicit placement policy.
func NewMultiServicePlaced(opts Options, gpus []arch.GPU, placement PlacementPolicy) (*MultiService, error) {
	if len(gpus) == 0 {
		return nil, fmt.Errorf("core: multi-service with no GPUs")
	}
	m := &MultiService{
		placement: placement,
		byVP:      map[int]int{},
		vpCount:   make([]int, len(gpus)),
		gates:     map[int]*sync.RWMutex{},
		metrics:   metrics.New(),
	}
	for _, g := range gpus {
		o := opts
		o.Arch = g
		m.services = append(m.services, newService(o))
	}
	if opts.Admission.enabled() {
		m.adm = &admission{opts: opts.Admission, farm: m.metrics,
			vps: map[int]*vpAdmission{}, devs: make([]deviceLoad, len(gpus))}
		for i, s := range m.services {
			m.adm.devs[i].reg = s.metrics
			s.adm, s.dev = m.adm, i
		}
	}
	return m, nil
}

// Device returns the service owning the given device index.
func (m *MultiService) Device(i int) *Service { return m.services[i] }

// Metrics returns the farm registry (never nil). A daemon attaches its
// transport to it (ipc.Server.SetMetrics); HostSnapshot reads it.
func (m *MultiService) Metrics() *metrics.Registry { return m.metrics }

// Devices returns the number of host GPUs.
func (m *MultiService) Devices() int { return len(m.services) }

// Placement returns the active placement policy.
func (m *MultiService) Placement() PlacementPolicy { return m.placement }

// Assignment returns the device index a VP is placed on, and whether the VP
// has been seen at all.
func (m *MultiService) Assignment(vp int) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.byVP[vp]
	return d, ok
}

// placeCandidates returns the device indices placement may choose from:
// devices at or over a device cap in the admission gate are refused so
// a new VP never lands on a device already shedding load. When every device
// is over quota the refusal is moot — all devices stay eligible, and
// admission shedding (not placement) is the protection. Caller holds m.mu.
func (m *MultiService) placeCandidates() []int {
	cand := make([]int, 0, len(m.services))
	for i := range m.services {
		if m.adm == nil || !m.adm.overQuota(i) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		for i := range m.services {
			cand = append(cand, i)
		}
	} else if len(cand) < len(m.services) {
		m.metrics.Counter("core.admission.placement_refusals").Inc()
	}
	return cand
}

// place chooses a device for a new VP among the admission-eligible
// candidates. Caller holds m.mu.
func (m *MultiService) place() int {
	cand := m.placeCandidates()
	switch m.placement {
	case PlaceLeastLoaded:
		best := cand[0]
		bq, bb := m.services[best].QueuedJobs(), m.services[best].BusySeconds()
		for _, i := range cand[1:] {
			q, b := m.services[i].QueuedJobs(), m.services[i].BusySeconds()
			if q < bq || (q == bq && (b < bb || (b == bb && m.vpCount[i] < m.vpCount[best]))) {
				best, bq, bb = i, q, b
			}
		}
		return best
	case PlaceMemAware:
		best := cand[0]
		bh := m.services[best].GPU.Mem.Headroom()
		for _, i := range cand[1:] {
			h := m.services[i].GPU.Mem.Headroom()
			if h > bh || (h == bh && m.vpCount[i] < m.vpCount[best]) {
				best, bh = i, h
			}
		}
		return best
	default:
		// Round-robin over the full index sequence, skipping refused
		// devices, so the cursor's cycle stays deterministic as devices
		// drop in and out of eligibility.
		for range m.services {
			d := m.nextRR % len(m.services)
			m.nextRR++
			for _, c := range cand {
				if c == d {
					return d
				}
			}
		}
		return cand[0]
	}
}

// serviceFor returns the device service of a VP, assigning one by the
// placement policy on first sight. The assignment is sticky: a VP that
// reconnects (or merely re-registers) keeps its device, so its allocations
// stay reachable.
func (m *MultiService) serviceFor(vp int) *Service {
	m.mu.RLock()
	d, ok := m.byVP[vp]
	m.mu.RUnlock()
	if ok {
		return m.services[d]
	}
	m.mu.Lock()
	if d, ok = m.byVP[vp]; !ok {
		d = m.place()
		m.byVP[vp] = d
		m.vpCount[d]++
	}
	m.mu.Unlock()
	return m.services[d]
}

// RegisterVP assigns the VP to a device and announces it there. Safe to call
// from concurrent connection handlers.
func (m *MultiService) RegisterVP(id int) {
	g := m.gate(id)
	g.RLock()
	defer g.RUnlock()
	m.serviceFor(id).RegisterVP(id)
}

// UnregisterVP removes the VP from its device at a clean point. The device
// assignment itself is retained for reconnects.
func (m *MultiService) UnregisterVP(id int) { m.leave(id, (*Service).UnregisterVP) }

// DisconnectVP removes a VP that vanished abruptly, cancelling its orphaned
// jobs on its device (see Service.DisconnectVP). Use it as the ipc server's
// disconnect hook.
func (m *MultiService) DisconnectVP(id int) { m.leave(id, (*Service).DisconnectVP) }

// leave runs a VP's teardown on its device, holding the VP's migration gate
// shared as request handling does. A VP never placed has nothing to tear down.
func (m *MultiService) leave(id int, teardown func(*Service, int)) {
	g := m.gate(id)
	g.RLock()
	defer g.RUnlock()
	if d, ok := m.Assignment(id); ok {
		teardown(m.services[d], id)
	}
}

// ActiveVPs returns the number of currently registered VPs across devices.
func (m *MultiService) ActiveVPs() int {
	n := 0
	for _, s := range m.services {
		n += s.ActiveVPs()
	}
	return n
}

// Handle implements ipc.Handler: the served door into the farm, and the only
// type switch over wire requests. Each request maps onto the farm's one
// submission route (submit), and every error becomes its wire response here:
// an admission shed an ipc.OverloadResp, anything else an ipc.ErrResp. With
// the lifecycle hooks (RegisterVP on hello, DisconnectVP on hangup) this makes
// the whole farm remotely servable — ipc.ServeEndpoint(l, m). Kernel launches
// arrive by registry name: the service owns the kernel binaries, giving guest
// applications binary compatibility across back ends.
func (m *MultiService) Handle(vp int, req any) any {
	var resp any
	var err error
	// Farm-admin requests run outside the caller's migration gate:
	// Migrate/Checkpoint acquire gates themselves, and holding the sender's
	// gate here would deadlock a VP asking to migrate itself.
	switch r := req.(type) {
	case ipc.MigrateReq:
		resp, err = ipc.OKResp{}, m.Migrate(r.VP, r.Target)
	case ipc.CheckpointReq:
		var ck *Checkpoint
		if ck, err = m.Checkpoint(); err == nil {
			resp = ipc.CheckpointResp{Data: ck.Marshal()}
		}
	default:
		resp, err = m.serve(vp, req)
	}
	if oe, ok := err.(*OverloadError); ok {
		return ipc.OverloadResp{Msg: oe.Error(), Backoff: oe.Backoff, Retryable: oe.Retryable}
	}
	if err != nil {
		return ipc.ErrResp{Msg: err.Error()}
	}
	return resp
}

// serve answers one device request, holding the VP's migration gate shared
// until its job has run or been cancelled: the transport releases an H2D's
// lent payload only once Handle has returned, and Migrate must find every job
// of the VP's retired.
func (m *MultiService) serve(vp int, req any) (any, error) {
	g := m.gate(vp)
	g.RLock()
	defer g.RUnlock()
	switch r := req.(type) {
	case ipc.MallocReq:
		p, err := m.serviceFor(vp).AllocVP(vp, r.Size)
		return ipc.MallocResp{Ptr: p}, err
	case ipc.FreeReq:
		return ipc.OKResp{}, m.serviceFor(vp).freeVP(vp, r.Ptr)
	case ipc.H2DReq:
		return done(m.run(vp, func(s *Service) (*sched.Job, error) {
			return s.h2dJob(vp, r.Stream, r.Dst, r.Off, r.Data, r.Payload())
		}))
	case ipc.D2HReq:
		var d2h ipc.D2HResp
		s, j, err := m.submit(vp, func(s *Service) (*sched.Job, error) {
			return s.d2hJob(vp, r.Stream, r.Src, r.Off, r.N, &d2h)
		})
		if err != nil {
			d2h.Release() // shed or refused before it was queued: nothing holds the frame
			return nil, err
		}
		if err := s.WaitJob(vp, j); err != nil {
			return nil, err
		}
		d2h.Data, d2h.End = j.Data, j.Interval.End
		return d2h, nil
	case ipc.MemsetReq:
		return done(m.run(vp, func(s *Service) (*sched.Job, error) {
			return s.memsetJob(vp, r.Stream, r.Dst, r.Off, r.N, r.Value)
		}))
	case ipc.LaunchReq:
		l, err := launchOf(r)
		if err != nil {
			return nil, err
		}
		return done(m.run(vp, func(s *Service) (*sched.Job, error) {
			return s.kernelJob(vp, r.Stream, l)
		}))
	case ipc.SyncReq:
		stream, err := streamOf(vp, r.Stream)
		if err != nil {
			return nil, err
		}
		s := m.serviceFor(vp)
		s.Drain()
		return ipc.OKResp{End: s.GPU.SyncStream(stream)}, nil
	}
	return nil, fmt.Errorf("core: unknown request %T", req)
}

// submit is the one route a job takes onto the farm, whichever transport
// brought it: resolve the VP's device, build the job there, admit it through
// the farm's one gate — every cap decided under one lock — and queue it. The
// caller holds the VP's migration gate shared: a served request until its job
// has run or been cancelled (serve), an in-process call through the enqueue
// only (multiBackend). A shed returns an *OverloadError and reserves nothing.
func (m *MultiService) submit(vp int, build func(*Service) (*sched.Job, error)) (*Service, *sched.Job, error) {
	s := m.serviceFor(vp)
	j, err := build(s)
	if err != nil {
		return nil, nil, err
	}
	if oe := s.admitJob(j); oe != nil {
		return nil, nil, oe
	}
	s.Submit(j)
	return s, j, nil
}

// run submits a served request's job and parks the VP until its batch
// retires.
func (m *MultiService) run(vp int, build func(*Service) (*sched.Job, error)) (*sched.Job, error) {
	s, j, err := m.submit(vp, build)
	if err != nil {
		return nil, err
	}
	return j, s.WaitJob(vp, j)
}

// done is the reply of a served job that brings no bytes back: its
// completion time.
func done(j *sched.Job, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return ipc.OKResp{End: j.Interval.End}, nil
}

// Flush drains every device. All devices are fed first and only then
// awaited, so a farm flush simulates the devices
// concurrently in wall clock instead of one after another.
func (m *MultiService) Flush() {
	for _, s := range m.services {
		s.flushAsync()
	}
	m.Drain()
}

// Drain waits for every device's execution pipeline to retire its batches.
func (m *MultiService) Drain() {
	for _, s := range m.services {
		s.Drain()
	}
}

// Close is Drain, kept under this name for the benchmark module, which calls
// it. A device's pipeline holds no goroutine without work, so there is
// nothing to stop.
func (m *MultiService) Close() { m.Drain() }

// Sync returns the latest completion time across all devices — the
// session's makespan.
func (m *MultiService) Sync() float64 {
	var t float64
	for _, s := range m.services {
		t = math.Max(t, s.Sync())
	}
	return t
}

// view reads every device registry and the farm registry once through sel
// (Registry.Select or Without) and merges the reads: each device's
// instruments "gpu<i>."-prefixed, an unprefixed aggregate summing them, and
// the farm's own instruments.
func (m *MultiService) view(sel func(*metrics.Registry, ...string) metrics.Snapshot, prefixes ...string) metrics.Snapshot {
	devs := make([]metrics.Snapshot, len(m.services))
	parts := make([]metrics.Snapshot, 0, len(m.services)+2)
	for i, s := range m.services {
		devs[i] = sel(s.metrics, prefixes...)
		parts = append(parts, devs[i].Prefixed(fmt.Sprintf("gpu%d.", i)))
	}
	parts = append(parts, metrics.MergeSnapshots(devs...), sel(m.metrics, prefixes...))
	return metrics.MergeSnapshots(parts...)
}

// Snapshot returns the aggregated simulated view: every device's instruments
// namespaced "gpu<i>."-prefixed, plus unprefixed aggregate instruments
// summing the per-device values, without the host families. It drains
// first, so it counts every job submitted before it. Deterministic for a
// deterministic workload.
func (m *MultiService) Snapshot() metrics.Snapshot {
	m.Drain()
	return m.view((*metrics.Registry).Without, hostFamilies...)
}

// Scrape reads every instrument, simulated and host families alike, in
// Snapshot's namespacing, as it stands: it does not drain, so a scrape
// neither waits behind nor runs a device's batches. The daemon's /metrics
// serves it.
func (m *MultiService) Scrape() metrics.Snapshot {
	return m.view((*metrics.Registry).Without)
}

// HostSnapshot returns the host families — executor health, admission,
// migration, transport — in the same namespacing as Snapshot. It is
// wall-clock state, so it does not drain the pipelines.
func (m *MultiService) HostSnapshot() metrics.Snapshot {
	return m.view((*metrics.Registry).Select, hostFamilies...)
}

// ExecSnapshot returns the core.exec.* part of HostSnapshot.
func (m *MultiService) ExecSnapshot() metrics.Snapshot {
	return m.view((*metrics.Registry).Select, "core.exec.")
}

// AdmissionSnapshot returns the core.admission.* part of HostSnapshot.
func (m *MultiService) AdmissionSnapshot() metrics.Snapshot {
	return m.view((*metrics.Registry).Select, "core.admission.")
}

// Traces returns the per-device engine timelines (nil entries when tracing
// is off).
func (m *MultiService) Traces() []*trace.Log {
	out := make([]*trace.Log, len(m.services))
	for i, s := range m.services {
		out[i] = s.Trace()
	}
	return out
}

// MergedTrace returns the multi-device timeline: every device's records
// re-labeled "gpu<i>/<engine>" in one sorted read, so Gantt and Utilization
// render the whole farm. Returns nil when no device records a trace.
func (m *MultiService) MergedTrace() *trace.Timeline {
	return trace.Merge(m.Traces()...)
}

// DispatchBatch runs one externally-assembled batch against a specific
// device — the deterministic path the experiments use. Jobs must belong to
// VPs assigned to that device. The batch is enqueued to the device's
// executor and DispatchBatch returns immediately; the caller owes a Sync,
// Drain or Flush, the completion barrier, as for DispatchRaw. A device's
// lone queued batch waits for that barrier, which runs it; from a device's
// second queued batch on a runner takes them, so a caller that feeds every
// device several batches before syncing simulates the devices concurrently.
func (m *MultiService) DispatchBatch(device int, batch []*sched.Job) {
	m.services[device].DispatchRaw(batch)
}
