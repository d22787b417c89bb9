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
// "hostgpu.*" and "sched.*" families); Snapshot exposes them namespaced
// per device plus an unprefixed aggregate.
type MultiService struct {
	services  []*Service
	placement PlacementPolicy

	mu      sync.RWMutex
	byVP    map[int]int // VP → device index; sticky across reconnects
	vpCount []int       // VPs ever assigned per device (placement tie-break)
	nextRR  int         // round-robin cursor

	// adm holds the farm-wide admission caps (Options.Admission.Farm*);
	// admReg counts farm-level sheds, merged into AdmissionSnapshot.
	adm    AdmissionOptions
	admReg *metrics.Registry

	// gates are the per-VP migration gates: request handling holds a VP's
	// gate shared, Migrate holds it exclusive (see migrate.go). migReg
	// counts migrations (core.migrate.*), kept apart from the simulated-work
	// registries like admReg is: whether and when an operator migrates VPs
	// is wall-clock operational state.
	gateMu sync.Mutex
	gates  map[int]*sync.RWMutex
	migReg *metrics.Registry
}

// NewMultiService builds one service per host GPU descriptor with the
// default round-robin placement. Options apply to every device, except that
// Options.Metrics is ignored: each device gets a private registry (see
// MultiService.Snapshot) so per-device counters cannot collide.
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
		adm:       opts.Admission,
		admReg:    metrics.New(),
		gates:     map[int]*sync.RWMutex{},
		migReg:    metrics.New(),
	}
	for _, g := range gpus {
		o := opts
		o.Arch = g
		// Never share a caller-supplied registry between devices: same-named
		// counters from different devices would silently sum. Each device
		// records into its own registry; Snapshot namespaces and aggregates.
		o.Metrics = metrics.New()
		m.services = append(m.services, NewService(o))
	}
	return m, nil
}

// Device returns the service owning the given device index.
func (m *MultiService) Device(i int) *Service { return m.services[i] }

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
// devices at or over their admission quota (Service.OverQuota) are refused so
// a new VP never lands on a device already shedding load. When every device
// is over quota the refusal is moot — all devices stay eligible, and
// admission shedding (not placement) is the protection. Caller holds m.mu.
func (m *MultiService) placeCandidates() []int {
	cand := make([]int, 0, len(m.services))
	for i, s := range m.services {
		if !s.OverQuota() {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		for i := range m.services {
			cand = append(cand, i)
		}
	} else if len(cand) < len(m.services) {
		m.admReg.Counter("core.admission.placement_refusals").Inc()
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

// Handle implements ipc.Handler: each request runs on the VP's device. With
// the lifecycle hooks (RegisterVP on hello, DisconnectVP on hangup) this
// makes the whole farm remotely servable — ipc.ServeEndpoint(l, m).
// Farm-wide admission caps (Options.Admission.Farm*) are enforced here,
// before routing: a farm drowning in queued work sheds new submissions no
// matter which device they would land on.
func (m *MultiService) Handle(vp int, req any) any {
	// Farm-admin requests run outside the caller's migration gate:
	// Migrate/Checkpoint acquire gates themselves, and holding the sender's
	// gate here would deadlock a VP asking to migrate itself.
	switch r := req.(type) {
	case ipc.MigrateReq:
		if err := m.Migrate(r.VP, r.Target); err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		return ipc.OKResp{}
	case ipc.CheckpointReq:
		ck, err := m.Checkpoint()
		if err != nil {
			return ipc.ErrResp{Msg: err.Error()}
		}
		return ipc.CheckpointResp{Data: ck.Marshal()}
	}
	g := m.gate(vp)
	g.RLock()
	defer g.RUnlock()
	if resp := m.admitFarm(vp, req); resp != nil {
		return resp
	}
	return m.serviceFor(vp).Handle(vp, req)
}

// queuedPayload classifies a request for the farm-wide caps: whether it
// enqueues work (mallocs, frees and syncs pass freely) and the host-side
// payload it would pin while queued.
func queuedPayload(req any) (bytes int, submits bool) {
	switch r := req.(type) {
	case ipc.H2DReq:
		return len(r.Data), true
	case ipc.D2HReq:
		return r.N, true
	case ipc.MemsetReq, ipc.LaunchReq:
		return 0, true
	}
	return 0, false
}

// admitFarm sheds a submission when the farm-wide totals are at their caps.
// It returns nil (admit; the device-level gate still applies) or the
// ipc.OverloadResp to send. Farm totals are sampled across the devices'
// admission gates — a snapshot, not a reservation: the per-device gates are
// the precise bound, the farm cap is the coarse circuit breaker above them.
func (m *MultiService) admitFarm(vp int, req any) any {
	payload, submits := queuedPayload(req)
	if !m.adm.farmEnabled() || !submits {
		return nil
	}
	jobs, bytes := 0, int64(0)
	for _, s := range m.services {
		j, b := s.AdmissionLoad()
		jobs += j
		bytes += b
	}
	var oe *OverloadError
	switch {
	case m.adm.FarmMaxQueuedJobs > 0 && jobs >= m.adm.FarmMaxQueuedJobs:
		oe = &OverloadError{VP: vp, Reason: "farm-jobs", Backoff: m.adm.retryAfter(), Retryable: true}
	case m.adm.FarmMaxQueuedBytes > 0 && bytes+int64(payload) > m.adm.FarmMaxQueuedBytes:
		oe = &OverloadError{VP: vp, Reason: "farm-bytes", Backoff: m.adm.retryAfter(), Retryable: true}
	default:
		return nil
	}
	m.admReg.Counter("core.admission.shed").Inc()
	m.admReg.Counter("core.admission.shed." + oe.Reason).Inc()
	return ipc.OverloadResp{Msg: oe.Error(), Backoff: oe.Backoff, Retryable: oe.Retryable}
}

// Flush drains every device. All devices are fed first and only then
// awaited, so with pipelining a farm flush simulates the devices
// concurrently in wall clock instead of one after another.
func (m *MultiService) Flush() {
	for _, s := range m.services {
		s.FlushAsync()
	}
	for _, s := range m.services {
		s.Drain()
	}
}

// Drain waits for every device's execution pipeline to retire its batches.
func (m *MultiService) Drain() {
	for _, s := range m.services {
		s.Drain()
	}
}

// Close drains and stops every device's execution pipeline.
func (m *MultiService) Close() {
	for _, s := range m.services {
		s.Close()
	}
}

// Sync returns the latest completion time across all devices — the
// session's makespan.
func (m *MultiService) Sync() float64 {
	var t float64
	for _, s := range m.services {
		t = math.Max(t, s.Sync())
	}
	return t
}

// DeviceMetrics returns device i's private registry.
func (m *MultiService) DeviceMetrics(i int) *metrics.Registry {
	return m.services[i].Metrics()
}

// perDevice merges one registry family across the farm: every device's
// instruments "gpu<i>."-prefixed, an unprefixed aggregate summing the
// per-device values, and any farm-level snapshots.
func (m *MultiService) perDevice(family func(*Service) *metrics.Registry, farm ...metrics.Snapshot) metrics.Snapshot {
	devs := make([]metrics.Snapshot, len(m.services))
	parts := make([]metrics.Snapshot, 0, len(m.services)+1+len(farm))
	for i, s := range m.services {
		devs[i] = family(s).Snapshot()
		parts = append(parts, devs[i].Prefixed(fmt.Sprintf("gpu%d.", i)))
	}
	parts = append(parts, metrics.MergeSnapshots(devs...))
	return metrics.MergeSnapshots(append(parts, farm...)...)
}

// Snapshot returns the aggregated observability view: every device's
// instruments namespaced "gpu<i>."-prefixed, plus unprefixed aggregate
// instruments summing the per-device values, plus the merged job-event
// stream in canonical order (each event exactly once). Deterministic for a
// deterministic workload, like the per-device snapshots it merges.
func (m *MultiService) Snapshot() metrics.Snapshot {
	m.Drain()
	return m.perDevice((*Service).Metrics)
}

// ExecSnapshot returns the farm's executor-health view: each device's
// pipeline counters (queue depth, batches, enqueue stalls) "gpu<i>."-prefixed
// plus an unprefixed aggregate — kept apart from Snapshot so the simulated
// metrics stay byte-identical with pipelining on or off.
func (m *MultiService) ExecSnapshot() metrics.Snapshot {
	return m.perDevice((*Service).ExecMetrics)
}

// AdmissionSnapshot returns the farm's admission view: each device's
// core.admission.* instruments "gpu<i>."-prefixed, an unprefixed aggregate,
// and the farm-level counters (farm-cap sheds, placement refusals) — kept
// apart from Snapshot for the same byte-identity reason as ExecSnapshot.
func (m *MultiService) AdmissionSnapshot() metrics.Snapshot {
	return m.perDevice((*Service).AdmissionMetrics, m.admReg.Snapshot())
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
// re-labeled "gpu<i>/<engine>" in one log, so Gantt and Utilization render
// the whole farm. Returns nil when no device records a trace.
func (m *MultiService) MergedTrace() *trace.Log {
	logs := m.Traces()
	any := false
	names := make([]string, len(logs))
	for i, l := range logs {
		names[i] = fmt.Sprintf("gpu%d", i)
		if l != nil {
			any = true
		}
	}
	if !any {
		return nil
	}
	return trace.Merge(names, logs...)
}

// DispatchBatch runs one externally-assembled batch against a specific
// device — the deterministic path the experiments use. Jobs must belong to
// VPs assigned to that device. With pipelining the batch is enqueued to the
// device's executor and DispatchBatch returns immediately; Sync (or Drain)
// is the completion barrier, so feeding all devices before syncing simulates
// them concurrently.
func (m *MultiService) DispatchBatch(device int, batch []*sched.Job) {
	m.services[device].DispatchRaw(batch)
}
