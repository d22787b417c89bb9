package core

// Live migration: moving one VP's device-side context between the devices
// of a MultiService without dropping work. The state machine is
// quiesce → transfer → replay → resume:
//
//  1. quiesce  — the VP's migration gate is write-locked, waiting out its
//     in-flight request handlers and blocking new ones; the source device
//     flushes and drains, so every submitted job retires and the VP's
//     admission reservations fall to zero.
//  2. transfer — checkpointVP captures the VP's allocations (guest-pointer
//     keyed buffer bytes) and the simulated clocks of its stream window.
//  3. replay   — restoreVP re-creates the allocations on the target arena
//     (at their original addresses when free, rebased otherwise), restores
//     the bytes and lifts the stream clocks.
//  4. resume   — the sticky VP→device map is rewritten atomically and the
//     gate is released; the VP's next request routes to the target.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// gate returns the VP's migration gate, creating it on first contact.
// Request handling holds it shared; Migrate holds it exclusively, so a
// migration waits out the VP's in-flight requests and new ones wait for the
// move to finish.
func (m *MultiService) gate(vp int) *sync.RWMutex {
	m.gateMu.Lock()
	defer m.gateMu.Unlock()
	g := m.gates[vp]
	if g == nil {
		g = &sync.RWMutex{}
		m.gates[vp] = g
	}
	return g
}

// MigrationSnapshot returns the core.migrate.* part of HostSnapshot:
// migrations, bytes moved, allocations replayed, pointer rebases, failures.
func (m *MultiService) MigrationSnapshot() metrics.Snapshot {
	return m.view((*metrics.Registry).Select, "core.migrate.")
}

// Migrate moves a VP's device-side context to the target device:
// quiesce → transfer → replay → resume (see the package comment above).
// In-flight jobs are drained, never dropped; on any error the VP stays
// fully intact on its source device. Migrating a VP onto its own device is
// a no-op.
func (m *MultiService) Migrate(vp, target int) error {
	if target < 0 || target >= len(m.services) {
		return fmt.Errorf("core: migrate vp %d: device %d out of range [0, %d)", vp, target, len(m.services))
	}
	g := m.gate(vp)
	g.Lock()
	defer g.Unlock()

	m.mu.RLock()
	src, ok := m.byVP[vp]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: migrate vp %d: vp has no device assignment", vp)
	}
	if src == target {
		return nil
	}
	s, t := m.services[src], m.services[target]

	// Quiesce: every queued job on the source dispatches and retires. The
	// gate guarantees the VP itself adds nothing new meanwhile.
	s.Flush()

	ck, err := s.checkpointVP(vp, src)
	if err != nil {
		m.metrics.Counter("core.migrate.failures").Inc()
		return err
	}
	st, err := t.restoreVP(ck)
	if err != nil {
		// The source is untouched; the VP keeps running where it was.
		m.metrics.Counter("core.migrate.failures").Inc()
		return err
	}
	s.evictVP(vp)

	m.mu.Lock()
	m.byVP[vp] = target
	m.vpCount[src]--
	m.vpCount[target]++
	m.mu.Unlock()

	m.metrics.Counter("core.migrate.migrations").Inc()
	m.metrics.Counter("core.migrate.bytes_moved").Add(st.bytes)
	m.metrics.Counter("core.migrate.allocs_replayed").Add(st.allocs)
	m.metrics.Counter("core.migrate.ptrs_rebased").Add(st.rebased)

	// The arrival record carries the source's post-drain simulated time —
	// the moment the context left the source — stamped into the *target*
	// device's timeline.
	if t.GPU.Trace != nil {
		when := s.GPU.Sync()
		t.GPU.Trace.Add(trace.Record{
			Kind: trace.KindMigrated, Engine: "migrate", Stream: vp, VP: vp,
			Label: fmt.Sprintf("vp%d gpu%d->gpu%d", vp, src, target), Start: when, End: when,
		})
	}
	return nil
}

// Checkpoint captures the whole farm: every device flushes and drains, then
// each VP is captured under its migration gate. Each VP's image is
// internally consistent; for a globally simultaneous cut, quiesce guests
// first (the daemon checkpoints during shutdown, after serving stopped; the
// drills checkpoint at barriers).
func (m *MultiService) Checkpoint() (*Checkpoint, error) {
	m.Flush()
	ck := &Checkpoint{Devices: len(m.services)}
	m.mu.RLock()
	vps := make([]int, 0, len(m.byVP))
	for vp := range m.byVP {
		vps = append(vps, vp)
	}
	m.mu.RUnlock()
	sort.Ints(vps)
	for _, vp := range vps {
		g := m.gate(vp)
		g.Lock()
		// Read the device under the gate: a migration that finished since
		// the id list was taken has moved the VP, and its old device would
		// yield an image with no allocations.
		d, _ := m.Assignment(vp)
		m.services[d].Flush()
		v, err := m.services[d].checkpointVP(vp, d)
		g.Unlock()
		if err != nil {
			return nil, err
		}
		ck.VPs = append(ck.VPs, v)
	}
	return ck, nil
}

// Restore replays a farm checkpoint into this MultiService: each VP's
// context lands on the device recorded in its image and the sticky
// placement map is rebuilt to match, bypassing the placement policy. The
// farm must have at least as many devices as the image and should be fresh;
// a VP already holding allocations on its recorded device fails the
// restore.
func (m *MultiService) Restore(ck *Checkpoint) error {
	if ck.Devices > len(m.services) {
		return fmt.Errorf("core: restore: checkpoint spans %d devices, farm has %d", ck.Devices, len(m.services))
	}
	for _, v := range ck.VPs {
		if v.Device < 0 || v.Device >= len(m.services) {
			return fmt.Errorf("core: restore vp %d: device %d out of range [0, %d)", v.VP, v.Device, len(m.services))
		}
	}
	for _, v := range ck.VPs {
		g := m.gate(v.VP)
		g.Lock()
		_, err := m.services[v.Device].restoreVP(v)
		if err == nil {
			m.mu.Lock()
			if _, seen := m.byVP[v.VP]; !seen {
				m.vpCount[v.Device]++
			}
			m.byVP[v.VP] = v.Device
			m.mu.Unlock()
		}
		g.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
