package coalesce

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// oracleApply is Apply as it was written over per-batch maps — groups keyed
// by Key and judged in map order, the rebuild keyed by *Job and by (VP,
// stream): the reference FuzzApplyMatchesOracle holds Apply's
// position-indexed slices to.
func oracleApply(g *hostgpu.GPU, batch []*sched.Job) []*sched.Job {
	groups := map[uint64][]*sched.Job{}
	vpSeen := map[uint64]map[int]bool{}
	for _, j := range batch {
		if j.Launch == nil || !j.Coalescable {
			continue
		}
		k := Key(j.Launch)
		if vpSeen[k] == nil {
			vpSeen[k] = map[int]bool{}
		}
		if vpSeen[k][j.VP] {
			continue // one invocation per VP per merge window
		}
		vpSeen[k][j.VP] = true
		groups[k] = append(groups[k], j)
	}

	replaced := map[*sched.Job]*sched.Job{} // member → merged
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		// Kernel Match found a mergeable group; the win predictor decides
		// whether merging actually pays.
		g.Metrics.Counter("coalesce.matches").Inc()
		if _, win := beneficial(g, members); !win {
			g.Metrics.Counter("coalesce.rejected").Inc()
			continue
		}
		g.Metrics.Counter("coalesce.wins").Inc()
		g.Metrics.Counter("coalesce.jobs_merged").Add(int64(len(members)))
		merged := Merge(g, members)
		for _, m := range members {
			replaced[m] = merged
		}
	}
	if len(replaced) == 0 {
		return batch
	}

	// Rebuild the batch: drop members, insert each merged job at its last
	// member's slot, and wire dependencies across chains.
	lastIdx := map[*sched.Job]int{}
	isMerged := map[*sched.Job]bool{}
	for i, j := range batch {
		if merged, ok := replaced[j]; ok {
			lastIdx[merged] = i
			isMerged[merged] = true
		}
	}
	prevInChain := map[[2]int]*sched.Job{}
	out := make([]*sched.Job, 0, len(batch))
	for i, j := range batch {
		ck := [2]int{j.VP, j.Stream}
		if merged, ok := replaced[j]; ok {
			// The merged job must run after the member's predecessors…
			if prev := prevInChain[ck]; prev != nil {
				merged.Deps = append(merged.Deps, prev)
			}
			// …and the member's successors must run after the merged job.
			prevInChain[ck] = merged
			if lastIdx[merged] == i {
				out = append(out, merged)
			}
			continue
		}
		// Cross-chain dependency: a job following a coalesced member in its
		// chain must wait for the merged job.
		if prev := prevInChain[ck]; prev != nil && isMerged[prev] {
			j.Deps = append(j.Deps, prev)
		}
		prevInChain[ck] = j
		out = append(out, j)
	}
	return out
}

// decodeApply turns bytes into a device and a batch on it: H2Ds, D2Hs and
// vectorAdd launches over a few VPs and streams, coalescable or not, whose
// parameters and block shape make four keys (so groups form, and one VP may
// launch one key twice), whose grids make merging win or lose, and whose
// buffers come from a small shared set on a device small enough that some
// groups do not fit. Jobs carry Deps on jobs of the batch, cycles included,
// and on a job outside it. Every byte string decodes; the same bytes always
// build the same device and batch, of fresh jobs.
func decodeApply(t *testing.T, data []byte) (*hostgpu.GPU, []*sched.Job, *sched.Job) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := hostgpu.NewTimingOnly(arch.Quadro4000(), int64(16+next()%64)<<10)
	g.Metrics = metrics.New()
	bufs := make([]devmem.Ptr, 6)
	for i := range bufs {
		p, err := g.Mem.Alloc(2 << 10)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = p
	}
	va, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	outside := sched.NewD2H(9, 9, bufs[0], 0, 4)
	batch := make([]*sched.Job, 1+next()%24)
	for i := range batch {
		b := next()
		vp, stream := b%4, (b/4)%2
		switch kind := (b / 8) % 4; kind {
		case 0, 1:
			v := next()
			l := &hostgpu.Launch{
				Kernel: va.Kernel, Prog: va.Prog,
				Grid:   [...]int{1, 2, 40}[v%3],
				Block:  128 << ((v / 3) % 2),
				Params: map[string]kpl.Value{"n": kpl.IntVal(int64(256 << ((v / 6) % 2)))},
				Bindings: map[string]devmem.Ptr{
					"a": bufs[v%6], "b": bufs[(v/2)%6], "out": bufs[(v/12)%6],
				},
			}
			batch[i] = sched.NewKernel(vp, stream, l)
			batch[i].Coalescable = kind == 0
		case 2:
			batch[i] = sched.NewH2D(vp, stream, bufs[b%6], 0, nil)
		default:
			batch[i] = sched.NewD2H(vp, stream, bufs[b%6], 0, 4)
		}
	}
	for _, j := range batch {
		for d := next() % 4; d > 0 && len(data) > 0; d-- {
			if x := next(); x%5 == 0 {
				j.Deps = append(j.Deps, outside)
			} else if x%3 == 0 {
				j.Deps = append(j.Deps, batch[x%len(batch)])
			}
		}
	}
	return g, batch, outside
}

// applyShape describes Apply's result by position: each slot of out as the
// batch job it holds or the merged job's label, and the Deps of every job of
// either, each named the same way.
func applyShape(batch, out []*sched.Job, outside *sched.Job) []string {
	name := func(j *sched.Job) string {
		if i := slices.Index(batch, j); i >= 0 {
			return fmt.Sprint("job ", i)
		}
		if k := slices.Index(out, j); k >= 0 {
			return fmt.Sprint("merged@", k)
		}
		if j == outside {
			return "outside"
		}
		return "unknown"
	}
	var shape []string
	describe := func(what string, j *sched.Job) {
		line := what + " " + name(j) + " " + j.Label + " deps"
		for _, d := range j.Deps {
			line += " " + name(d)
		}
		shape = append(shape, line)
	}
	for _, j := range out {
		describe("slot", j)
	}
	for _, j := range batch {
		describe("batch", j)
	}
	return shape
}

// FuzzApplyMatchesOracle holds Apply to the map-based oracle on the same
// fresh batch: the same result batch, the same Deps, the same coalesce and
// timing-cache counters, and each merged job finishing the same members.
func FuzzApplyMatchesOracle(f *testing.F) {
	f.Add([]byte{40, 6, 0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{63, 9, 0, 16, 1, 16, 2, 16, 3, 16, 4, 16, 5, 80, 6, 0, 0, 1, 3})
	f.Add([]byte{10, 12, 0, 2, 16, 1, 6, 1, 0, 8, 2, 0, 1, 5, 9, 24, 8, 2, 3, 0, 1, 12, 3, 6, 0, 4, 6, 7, 1, 3, 9, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		gw, want, wantOut := decodeApply(t, data)
		gg, got, gotOut := decodeApply(t, data)
		wantBatch := oracleApply(gw, want)
		gotBatch := Apply(gg, got)
		ws, gs := applyShape(want, wantBatch, wantOut), applyShape(got, gotBatch, gotOut)
		if !slices.Equal(gs, ws) {
			t.Fatalf("Apply:\n%v\noracle:\n%v", gs, ws)
		}
		counters := func(g *hostgpu.GPU) []byte {
			js, err := metrics.Snapshot{Counters: g.Metrics.Snapshot().Counters}.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return js
		}
		if w, g := counters(gw), counters(gg); !bytes.Equal(g, w) {
			t.Fatalf("counters:\n%s\noracle:\n%s", g, w)
		}
		// Run the merged jobs, slot by slot: each finishes the members the
		// oracle's does.
		for k, mj := range wantBatch {
			if slices.Contains(want, mj) {
				continue
			}
			errW, errG := mj.Run(gw), gotBatch[k].Run(gg)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("merged@%d: error %v, oracle %v", k, errG, errW)
			}
			for i := range want {
				if got[i].Done() != want[i].Done() {
					t.Fatalf("merged@%d: job %d finished %v, oracle %v", k, i, got[i].Done(), want[i].Done())
				}
			}
		}
	})
}
