package core

import (
	"bytes"
	"net"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/metrics"
)

// domainSession drives a served 2-device farm the way sigmavpd serves one —
// the transport recording into the farm registry — through one script: VP 1
// (gpu0) and VP 2 (gpu1) each allocate, copy and sync; VP 2 hangs up; VP 1
// has one copy shed by the farm byte cap, migrates itself onto gpu1 and reads
// its bytes back. The server is shut down before returning, as the daemon
// shuts down before its final snapshot, so every serve loop's counters are in.
func domainSession(t *testing.T) *MultiService {
	t.Helper()
	const farmCap = 1 << 10
	opts := DefaultOptions()
	opts.Admission = AdmissionOptions{FarmMaxQueuedBytes: farmCap}
	opts.Trace = true
	m, err := NewMultiService(opts, []arch.GPU{arch.Quadro4000(), arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, m)
	srv.SetMetrics(m.Metrics())
	t.Cleanup(func() { srv.Close() }) // a failed script leaves it serving

	payload := []byte("sixteen bytes!!!")
	var ptrs [2]devmem.Ptr
	var clients [2]ipc.Client
	for i := range clients {
		c, err := ipc.Dial(srv.Addr().String(), i+1)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		resp, err := c.Call(ipc.MallocReq{Size: 64})
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = resp.(ipc.MallocResp).Ptr
		if _, err := c.Call(ipc.H2DReq{Dst: ptrs[i], Data: payload}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(ipc.SyncReq{}); err != nil {
			t.Fatal(err)
		}
	}
	clients[1].Close()

	c := clients[0]
	if _, err := c.Call(ipc.H2DReq{Dst: ptrs[0], Data: make([]byte, 2*farmCap)}); err == nil {
		t.Fatal("a copy over the farm byte cap was admitted")
	} else if _, ok := ipc.AsOverload(err); !ok {
		t.Fatalf("over-cap copy: %v, want an overload shed", err)
	}
	if _, err := c.Call(ipc.MigrateReq{VP: 1, Target: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(ipc.D2HReq{Src: ptrs[0], N: len(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(ipc.D2HResp).Data; !bytes.Equal(got, payload) {
		t.Fatalf("after migration vp 1 reads %q, want %q", got, payload)
	}
	c.Close()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	return m
}

// domainInstruments pins the instrument names /metrics carried for
// domainSession when the executor, admission, migration and transport
// counters still lived in side registries merged at snapshot time, plus the
// executor's byte-movement counter the session's partial H2Ds touch
// (core.exec.h2d_copied_bytes) and the count of batches a drainer ran
// (core.exec.batches_by_drainer, registered with core.exec.batches): the
// union of the two domains must carry exactly these.
var domainInstruments = []string{
	"core.admission.admitted", "core.admission.queue_bytes",
	"core.admission.queue_jobs", "core.admission.shed",
	"core.admission.shed.farm-bytes", "core.dispatch_latency_s",
	"core.exec.batches", "core.exec.batches_by_drainer", "core.exec.h2d_copied_bytes",
	"core.exec.queue_depth", "core.exec.queue_depth_hw",
	"core.jobs_completed", "core.jobs_in_flight", "core.jobs_submitted",
	"core.migrate.allocs_replayed", "core.migrate.bytes_moved",
	"core.migrate.migrations", "core.migrate.ptrs_rebased", "core.vps_active",
	"gpu0.core.admission.admitted", "gpu0.core.admission.queue_bytes",
	"gpu0.core.admission.queue_jobs", "gpu0.core.dispatch_latency_s",
	"gpu0.core.exec.batches", "gpu0.core.exec.batches_by_drainer", "gpu0.core.exec.h2d_copied_bytes",
	"gpu0.core.exec.queue_depth", "gpu0.core.exec.queue_depth_hw", "gpu0.core.jobs_completed",
	"gpu0.core.jobs_in_flight", "gpu0.core.jobs_submitted",
	"gpu0.core.vps_active", "gpu0.hostgpu.engine_busy_ns.h2d",
	"gpu0.hostgpu.ops.h2d", "gpu0.sched.batch_size",
	"gpu0.sched.batches_drained", "gpu0.sched.batches_planned",
	"gpu0.sched.jobs_pushed", "gpu0.sched.queue_depth",
	"gpu0.sched.reorder_distance", "gpu1.core.admission.admitted",
	"gpu1.core.admission.queue_bytes", "gpu1.core.admission.queue_jobs",
	"gpu1.core.dispatch_latency_s", "gpu1.core.exec.batches", "gpu1.core.exec.batches_by_drainer",
	"gpu1.core.exec.h2d_copied_bytes",
	"gpu1.core.exec.queue_depth", "gpu1.core.exec.queue_depth_hw",
	"gpu1.core.jobs_completed", "gpu1.core.jobs_in_flight",
	"gpu1.core.jobs_submitted", "gpu1.core.vps_active",
	"gpu1.hostgpu.engine_busy_ns.d2h", "gpu1.hostgpu.engine_busy_ns.h2d",
	"gpu1.hostgpu.ops.d2h", "gpu1.hostgpu.ops.h2d", "gpu1.sched.batch_size",
	"gpu1.sched.batches_drained", "gpu1.sched.batches_planned",
	"gpu1.sched.jobs_pushed", "gpu1.sched.queue_depth",
	"gpu1.sched.reorder_distance", "hostgpu.engine_busy_ns.d2h",
	"hostgpu.engine_busy_ns.h2d", "hostgpu.ops.d2h", "hostgpu.ops.h2d",
	"ipc.server.connections", "ipc.server.decode_errors",
	"ipc.server.requests", "sched.batch_size", "sched.batches_drained",
	"sched.batches_planned", "sched.jobs_pushed", "sched.queue_depth",
	"sched.reorder_distance",
}

// instrumentNames returns the snapshot's counter, gauge and histogram names,
// sorted.
func instrumentNames(s metrics.Snapshot) []string {
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name)
	}
	for _, g := range s.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range s.Histograms {
		names = append(names, h.Name)
	}
	sort.Strings(names)
	return names
}

// devicePrefix matches the namespace a farm view puts on a device's
// instruments.
var devicePrefix = regexp.MustCompile(`^gpu[0-9]+\.`)

// familyOf reports the host family an instrument name lies in, bare or
// device-prefixed, or "" for the simulated domain.
func familyOf(name string) string {
	name = devicePrefix.ReplaceAllString(name, "")
	for _, f := range hostFamilies {
		if strings.HasPrefix(name, f) {
			return f
		}
	}
	return ""
}

// TestMetricsDomainSplit: one registry per device and one per farm, and the
// domain of an instrument decided by its family name alone. The simulated
// view holds no host family; the host view holds nothing else; together they
// are the daemon's full /metrics view with the same instruments as before
// the side registries were merged; the per-family accessors read only their
// family; and no snapshot copies the job history, which is the timeline.
func TestMetricsDomainSplit(t *testing.T) {
	m := domainSession(t)
	sim, host := m.Snapshot(), m.HostSnapshot()
	simNames, hostNames := instrumentNames(sim), instrumentNames(host)
	for _, n := range simNames {
		if f := familyOf(n); f != "" {
			t.Errorf("simulated snapshot holds %q of host family %q", n, f)
		}
	}
	for _, n := range hostNames {
		if familyOf(n) == "" {
			t.Errorf("host snapshot holds simulated instrument %q", n)
		}
	}
	// The job history is the simulated timeline, and no snapshot copies it.
	if tl := m.MergedTrace(); len(tl.Records) == 0 || sim.Events != nil || host.Events != nil {
		t.Fatalf("%d timeline records, %d simulated and %d host events; want some, none, none",
			len(tl.Records), len(sim.Events), len(host.Events))
	}

	full := instrumentNames(metrics.MergeSnapshots(sim, host))
	if len(full) != len(simNames)+len(hostNames) {
		t.Fatalf("%d instruments in the union of %d simulated and %d host: a name is in both",
			len(full), len(simNames), len(hostNames))
	}
	if !reflect.DeepEqual(full, domainInstruments) {
		t.Errorf("full view instruments differ from the pinned list:\n got %q\nwant %q", full, domainInstruments)
	}

	for family, s := range map[string]metrics.Snapshot{
		"core.exec.":      m.ExecSnapshot(),
		"core.admission.": m.AdmissionSnapshot(),
		"core.migrate.":   m.MigrationSnapshot(),
	} {
		names := instrumentNames(s)
		if len(names) == 0 {
			t.Errorf("%s: the session recorded nothing", family)
		}
		for _, n := range names {
			if familyOf(n) != family {
				t.Errorf("%s snapshot holds %q", family, n)
			}
		}
		if s.Events != nil {
			t.Errorf("%s snapshot carries %d events", family, len(s.Events))
		}
	}
	for _, want := range []string{"core.admission.shed.farm-bytes", "core.migrate.migrations", "ipc.server.requests"} {
		if host.CounterValue(want) == 0 {
			t.Errorf("host snapshot: %s = 0", want)
		}
	}

	// domainSession launches nothing, and a byte-movement counter appears
	// once non-zero, so the launch-side ones are pinned on a served vectorAdd:
	// its whole-allocation H2Ds of the inputs are adopted, its H2D of zeros
	// into the fresh "out" changes no byte and is counted unchanged, and its
	// copy of "out" takes none of out's bytes, all of which the kernel
	// overwrites, and is swapped in.
	lm, call, _ := servedSession(t)
	s := newVectorAddSession(t, call, 0, 1<<10, 1, make([]byte, 4<<10))
	if err := s.launch(1 << 10); err != nil {
		t.Fatal(err)
	}
	s.read()
	var exec []string
	for _, n := range instrumentNames(lm.HostSnapshot()) {
		if familyOf(n) == "core.exec." {
			exec = append(exec, n)
		}
	}
	if !reflect.DeepEqual(exec, launchExecInstruments) {
		t.Errorf("core.exec. instruments after a launch differ from the pinned list:\n got %q\nwant %q", exec, launchExecInstruments)
	}
}

// launchExecInstruments pins the core.exec. family after one served vectorAdd
// on a one-device farm, bare and per device.
var launchExecInstruments = []string{
	"core.exec.batches", "core.exec.batches_by_drainer", "core.exec.bind_uncopied_bytes",
	"core.exec.h2d_adopted_bytes", "core.exec.h2d_unchanged_bytes", "core.exec.queue_depth",
	"core.exec.queue_depth_hw", "core.exec.writebacks_swapped",
	"gpu0.core.exec.batches", "gpu0.core.exec.batches_by_drainer", "gpu0.core.exec.bind_uncopied_bytes",
	"gpu0.core.exec.h2d_adopted_bytes", "gpu0.core.exec.h2d_unchanged_bytes", "gpu0.core.exec.queue_depth",
	"gpu0.core.exec.queue_depth_hw", "gpu0.core.exec.writebacks_swapped",
}
