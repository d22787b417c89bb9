package sched

import (
	"errors"
	"testing"

	"repro/internal/hostgpu"
	"repro/internal/metrics"
)

// oraclePlan is the planner as it was written over per-batch maps keyed by
// *Job and by (VP, stream): the reference FuzzPlanMatchesOracle holds Plan's
// position-indexed slices to.
func oraclePlan(batch []*Job, policy Policy) []*Job {
	if len(batch) <= 1 {
		return batch
	}
	type chainKey struct{ vp, stream int }
	planned := map[*Job]bool{}
	inBatch := map[*Job]bool{}
	for _, j := range batch {
		inBatch[j] = true
	}
	ready := func(j *Job) bool {
		for _, d := range j.Deps {
			if inBatch[d] && !planned[d] {
				return false
			}
		}
		return true
	}
	out := make([]*Job, 0, len(batch))

	if policy == PolicyFIFO {
		prev := map[*Job]*Job{}
		lastOf := map[chainKey]*Job{}
		for _, j := range batch {
			k := chainKey{j.VP, j.Stream}
			prev[j] = lastOf[k]
			lastOf[k] = j
		}
		for len(out) < len(batch) {
			progressed := false
			for _, j := range batch {
				if planned[j] {
					continue
				}
				if p := prev[j]; p != nil && !planned[p] {
					continue
				}
				if !ready(j) {
					continue
				}
				planned[j] = true
				out = append(out, j)
				progressed = true
			}
			if !progressed {
				for _, j := range batch {
					if planned[j] {
						continue
					}
					if !ready(j) {
						markCycle(j)
					}
					planned[j] = true
					out = append(out, j)
				}
			}
		}
		return out
	}

	type chain struct {
		jobs []*Job
		head int
	}
	var chains []*chain
	idx := map[chainKey]*chain{}
	for _, j := range batch {
		k := chainKey{j.VP, j.Stream}
		c := idx[k]
		if c == nil {
			c = &chain{}
			idx[k] = c
			chains = append(chains, c)
		}
		c.jobs = append(c.jobs, j)
	}
	lastEngine := ""
	rr := 0
	for len(out) < len(batch) {
		pickIdx := -1
		for pass := 0; pass < 2 && pickIdx < 0; pass++ {
			for i := range chains {
				ci := (rr + i) % len(chains)
				c := chains[ci]
				if c.head >= len(c.jobs) {
					continue
				}
				j := c.jobs[c.head]
				if !ready(j) || (pass == 0 && lastEngine != "" && j.Engine == lastEngine) {
					continue
				}
				pickIdx = ci
				break
			}
		}
		if pickIdx < 0 {
			for i, c := range chains {
				if c.head < len(c.jobs) {
					pickIdx = i
					if !ready(c.jobs[c.head]) {
						markCycle(c.jobs[c.head])
					}
					break
				}
			}
		}
		c := chains[pickIdx]
		pick := c.jobs[c.head]
		c.head++
		rr = (pickIdx + 1) % len(chains)
		planned[pick] = true
		lastEngine = pick.Engine
		out = append(out, pick)
	}
	return out
}

// fuzzEngines are the engines a decoded job may name.
var fuzzEngines = [...]string{hostgpu.EngineH2D, hostgpu.EngineD2H, hostgpu.EngineCompute}

// decodeBatch turns bytes into a batch of distinct jobs over a few VPs,
// streams and engines, with explicit Deps on jobs of the batch (earlier,
// later or the job itself, so cycles occur) and on jobs outside it. Every
// byte string decodes; the same bytes always build the same batch, of fresh
// jobs, and the one job outside it that Deps name.
func decodeBatch(data []byte) (batch []*Job, outside *Job) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%24
	batch = make([]*Job, n)
	for i := range batch {
		b := next()
		batch[i] = fakeJob(b%4, (b/4)%3, fuzzEngines[(b/12)%3])
	}
	outside = fakeJob(9, 9, hostgpu.EngineCompute)
	for _, j := range batch {
		for d := next() % 4; d > 0 && len(data) > 0; d-- {
			// Most decoded jobs carry no Deps, as most jobs of a batch do not.
			if t := next(); t%5 == 0 {
				j.Deps = append(j.Deps, outside)
			} else if t%3 == 0 {
				j.Deps = append(j.Deps, batch[t%n])
			}
		}
	}
	return batch, outside
}

// FuzzPlanMatchesOracle holds Plan and PlanRecorded, under both policies, to
// the map-based oracle: the same order, the same Deps and the same ErrCycle
// marks on the same fresh batch.
func FuzzPlanMatchesOracle(f *testing.F) {
	f.Add([]byte{5, 0, 4, 12, 24, 1, 13})
	f.Add([]byte{3, 0, 0, 1, 3, 2, 3, 3, 0})
	f.Add([]byte{11, 0, 12, 24, 1, 13, 25, 2, 14, 26, 3, 15, 27, 1, 6, 2, 9, 3, 33, 0, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []Policy{PolicyFIFO, PolicyInterleave} {
			want, _ := decodeBatch(data)
			got, outside := decodeBatch(data)
			// A job planned before keeps its old batch position: the planner
			// must not take it for a member of this batch.
			Plan([]*Job{fakeJob(9, 8, hostgpu.EngineH2D), outside}, policy)
			wantOrder := oraclePlan(want, policy)
			m := metrics.New()
			gotOrder := PlanRecorded(got, policy, m)
			index := func(batch []*Job) map[*Job]int {
				m := map[*Job]int{}
				for i, j := range batch {
					m[j] = i
				}
				return m
			}
			wi, gi := index(want), index(got)
			if len(gotOrder) != len(wantOrder) {
				t.Fatalf("%v: planned %d jobs, oracle %d", policy, len(gotOrder), len(wantOrder))
			}
			distance := 0
			for k := range wantOrder {
				if gi[gotOrder[k]] != wi[wantOrder[k]] {
					t.Fatalf("%v: slot %d holds job %d, oracle job %d", policy, k, gi[gotOrder[k]], wi[wantOrder[k]])
				}
				distance += max(k-wi[wantOrder[k]], wi[wantOrder[k]]-k)
			}
			for _, h := range m.Snapshot().Histograms {
				if h.Name == "sched.reorder_distance" && (h.Count != int64(len(want)) || h.Sum != float64(distance)) {
					t.Fatalf("%v: reorder_distance %d observations summing to %v, oracle %d and %d", policy, h.Count, h.Sum, len(want), distance)
				}
			}
			for i := range want {
				if len(got[i].Deps) != len(want[i].Deps) {
					t.Fatalf("%v: job %d has %d deps, oracle %d", policy, i, len(got[i].Deps), len(want[i].Deps))
				}
				for k, d := range want[i].Deps {
					if dw, ok := wi[d]; ok && gi[got[i].Deps[k]] != dw {
						t.Fatalf("%v: job %d dep %d differs", policy, i, k)
					}
				}
				if errors.Is(got[i].Err, ErrCycle) != errors.Is(want[i].Err, ErrCycle) {
					t.Fatalf("%v: job %d cycle mark %v, oracle %v", policy, i, got[i].Err, want[i].Err)
				}
			}
		}
	})
}
