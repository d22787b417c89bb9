package coalesce

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// TestEachKernelJobPricedOnce pins how often a batch looks its launches up in
// the timing cache: once per kernel job whose pricing is a function of its key
// — at plan time if the win predictor judges it, when it runs otherwise — and
// never for a launch whose λ is sampled from live bytes, which is priced
// afresh when it runs. The batch holds a group of N that merges, a group of N
// that matches and is rejected (each member saturates the device, so the
// memory merge is pure overhead), N launches that match nothing, and a
// mergeSort pair that merges: one member carries its pre-measured statistics,
// the other samples them, so the merged job prices at run time from the one's
// entry and the other's fresh sample. The device is timing-only over a backed
// memory: a byte-less one refuses the sample (devmem.ErrNoBytes), and the
// sampled member measures its λ on the inputs written to it, not on zeros.
// Before pricings were carried on the
// jobs, each member of a judged group was looked up three times: by the
// predictor, by the merged pricing, and again when it ran (24 lookups here).
func TestEachKernelJobPricedOnce(t *testing.T) {
	const n = 3
	g := hostgpu.NewTimingOnly(arch.Quadro4000(), 1<<30)
	g.Mem = devmem.New(1 << 30)
	g.Metrics = metrics.New()

	var launches []*hostgpu.Launch
	coalescable := map[*hostgpu.Launch]bool{}
	vp := 0
	add := func(j *sched.Job, merge bool) {
		launches = append(launches, j.Launch)
		coalescable[j.Launch] = merge
	}
	for i := 0; i < n; i++ { // merges: one block each undersubscribes the device
		vp++
		j, _ := vecAddJob(t, g, vp, 512)
		add(j, true)
	}
	for i := 0; i < n; i++ { // rejected: 2048 blocks each saturate it
		vp++
		j, _ := vecAddJob(t, g, vp, 1<<20)
		j.Launch.Grid, j.Launch.Block = 2048, 512
		add(j, true)
	}
	for i := 0; i < n; i++ { // matches nothing
		vp++
		j, _ := vecAddJob(t, g, vp, 512)
		add(j, false)
	}
	b := kernels.MergeSort
	w := b.MakeWorkload(1)
	dyn, err := b.SampleDyn(w)
	if err != nil {
		t.Fatal(err)
	}
	var sampled *hostgpu.Launch
	for i := 0; i < 2; i++ {
		l := b.NewLaunch(w)
		l.Bindings = map[string]devmem.Ptr{}
		for _, decl := range b.Kernel.Bufs {
			p, err := g.Mem.Alloc(w.BufBytes[decl.Name])
			if err != nil {
				t.Fatal(err)
			}
			if in, ok := w.Inputs[decl.Name]; ok {
				if err := g.Mem.Write(p, 0, in); err != nil {
					t.Fatal(err)
				}
			}
			l.Bindings[decl.Name] = p
		}
		if i == 0 {
			l.Dyn = dyn
		} else {
			sampled = l
		}
		launches = append(launches, l)
		coalescable[l] = true
	}
	if !sampled.Sampled() || launches[len(launches)-2].Sampled() {
		t.Fatal("the mergeSort pair is not one sampled launch and one with statistics")
	}

	lookups := func() int64 {
		return g.Metrics.Counter("hostgpu.timing_cache.hits").Value() + g.Metrics.Counter("hostgpu.timing_cache.misses").Value()
	}
	for round := 0; round < 2; round++ {
		var batch []*sched.Job
		for i, l := range launches {
			j := sched.NewKernel(i+1, i+1, l)
			j.Coalescable = coalescable[l]
			batch = append(batch, j)
		}
		before := g.Metrics.Snapshot()
		l0 := lookups()
		planned := Apply(g, batch)
		for _, j := range batch {
			if judged := coalescable[j.Launch]; judged && (j.Priced == nil) != j.Launch.Sampled() {
				t.Fatalf("round %d: vp%d: priced at plan time = %v, sampled = %v", round, j.VP, j.Priced != nil, j.Launch.Sampled())
			}
		}
		for _, j := range sched.Plan(planned, sched.PolicyInterleave) {
			if err := j.Run(g); err != nil {
				t.Fatal(err)
			}
			if !j.Done() {
				j.Finish(nil)
			}
		}
		after := g.Metrics.Snapshot()
		counted := func(name string) int64 { return after.CounterValue(name) - before.CounterValue(name) }
		if m, w, r := counted("coalesce.matches"), counted("coalesce.wins"), counted("coalesce.rejected"); m != 3 || w != 2 || r != 1 {
			t.Fatalf("round %d: %d matches, %d wins, %d rejected; want 3, 2 and 1", round, m, w, r)
		}
		// 3n plan-priceable vecAdd jobs and the mergeSort member with
		// statistics; the sampled member is never looked up.
		if got, want := lookups()-l0, int64(3*n+1); got != want {
			t.Errorf("round %d: %d timing-cache lookups for the batch, want %d", round, got, want)
		}
		// Every job carries its pricing; the sampled member's, made when the
		// merged job ran, from the bytes it ran on, carries the λ it sampled:
		// its workload's.
		for _, j := range batch {
			if j.Err != nil || j.Priced == nil || (j.Priced.Dyn != nil) != (j.Launch == sampled) {
				t.Fatalf("round %d: vp%d: err %v, pricing %+v", round, j.VP, j.Err, j.Priced)
			}
			if j.Launch == sampled && !reflect.DeepEqual(j.Priced.Dyn, dyn) {
				t.Fatalf("round %d: the sampled member priced at λ %+v, its workload's is %+v", round, j.Priced.Dyn, dyn)
			}
		}
	}
}
