package coalesce

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/raceflag"
	"repro/internal/sched"
)

// vecAddJob provisions a vectorAdd workload on the device for one VP and
// returns its kernel job and output pointer.
func vecAddJob(t *testing.T, g *hostgpu.GPU, vpID, n int) (*sched.Job, devmem.Ptr) {
	t.Helper()
	b, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(fill float32) devmem.Ptr {
		p, err := g.Mem.Alloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = fill * float32(vpID*1000+i)
		}
		if err := g.Mem.Write(p, 0, devmem.EncodeF32(vals)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	l := &hostgpu.Launch{
		Kernel: b.Kernel, Prog: b.Prog,
		Grid: 1, Block: 512,
		Params: map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
		Bindings: map[string]devmem.Ptr{
			"a": alloc(1), "b": alloc(2), "out": alloc(0),
		},
		Native: b.Native,
	}
	j := sched.NewKernel(vpID, vpID, l)
	j.Coalescable = true
	return j, l.Bindings["out"]
}

func checkVecAddResult(t *testing.T, g *hostgpu.GPU, vpID int, out devmem.Ptr, n int) {
	t.Helper()
	raw, err := g.Mem.Read(out, 0, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range devmem.DecodeF32(raw) {
		want := 3 * float32(vpID*1000+i)
		if v != want {
			t.Fatalf("vp%d out[%d] = %v, want %v", vpID, i, v, want)
		}
	}
}

func TestMergeExecutesAllPieces(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	const n = 512
	var members []*sched.Job
	var outs []devmem.Ptr
	for vp := 1; vp <= 4; vp++ {
		j, out := vecAddJob(t, g, vp, n)
		members = append(members, j)
		outs = append(outs, out)
	}
	merged := Merge(g, members)
	if err := merged.Run(g); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		checkVecAddResult(t, g, i+1, outs[i], n)
		if m.Profile == nil || m.Profile.Sigma.Sum() <= 0 {
			t.Fatalf("member %d missing profile", i)
		}
	}
	if merged.Profile == nil {
		t.Fatal("merged profile missing")
	}
	// The merged σ must be the sum of the member shares.
	var sum float64
	for _, m := range members {
		sum += m.Profile.Sigma.Sum()
	}
	if diff := sum - merged.Profile.Sigma.Sum(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("member σ sum %v != merged %v", sum, merged.Profile.Sigma.Sum())
	}
	// Merged allocations must have been freed.
	var memberBytes int64
	for _, m := range members {
		for range m.Launch.Bindings {
			memberBytes += 4 * n
		}
	}
	if g.Mem.Used() != memberBytes {
		t.Errorf("leaked merged allocations: used %d, want %d", g.Mem.Used(), memberBytes)
	}
}

// TestMergeLabel pins the merged job's label, which traces and job events
// carry.
func TestMergeLabel(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	var members []*sched.Job
	for vp := 1; vp <= 3; vp++ {
		j, _ := vecAddJob(t, g, vp, 64)
		members = append(members, j)
	}
	if got, want := Merge(g, members).Label, "coalesced vectorAdd ×3"; got != want {
		t.Errorf("label %q, want %q", got, want)
	}
}

// TestCoalescingIsFaster: one merged launch of N 1-block grids beats N
// serialized launches (Fig. 10a's parallelism + launch-overhead gain).
func TestCoalescingIsFaster(t *testing.T) {
	const n = 512
	uncoal := hostgpu.New(arch.Quadro4000(), 1<<28)
	uncoal.Serialize = true
	var unJobs []*sched.Job
	for vp := 1; vp <= 8; vp++ {
		j, _ := vecAddJob(t, uncoal, vp, n)
		unJobs = append(unJobs, j)
	}
	for _, j := range unJobs {
		if err := j.Run(uncoal); err != nil {
			t.Fatal(err)
		}
	}
	tUncoal := uncoal.Sync()

	coal := hostgpu.New(arch.Quadro4000(), 1<<28)
	var members []*sched.Job
	for vp := 1; vp <= 8; vp++ {
		j, _ := vecAddJob(t, coal, vp, n)
		members = append(members, j)
	}
	merged := Merge(coal, members)
	if err := merged.Run(coal); err != nil {
		t.Fatal(err)
	}
	tCoal := coal.Sync()

	if tCoal >= tUncoal {
		t.Fatalf("coalesced %.6f should beat uncoalesced %.6f", tCoal, tUncoal)
	}
	t.Logf("uncoalesced %.6fs, coalesced %.6fs (%.2fx)", tUncoal, tCoal, tUncoal/tCoal)
}

func TestKeyMatching(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	j1, _ := vecAddJob(t, g, 1, 512)
	j2, _ := vecAddJob(t, g, 2, 512)
	if Key(j1.Launch) != Key(j2.Launch) {
		t.Fatal("identical launches must match")
	}
	j3, _ := vecAddJob(t, g, 3, 256) // different n parameter
	if Key(j1.Launch) == Key(j3.Launch) {
		t.Fatal("different parameters must not match")
	}
	j4, _ := vecAddJob(t, g, 4, 512)
	j4.Launch.Block = 256
	if Key(j1.Launch) == Key(j4.Launch) {
		t.Fatal("different block shapes must not match")
	}
	j5, _ := vecAddJob(t, g, 5, 512)
	j5.Launch.Params["alpha"] = kpl.F32Val(0) // not declared by vectorAdd
	if Key(j1.Launch) == Key(j5.Launch) {
		t.Fatal("an extra parameter must not match")
	}
	j6, _ := vecAddJob(t, g, 6, 512)
	j6.Launch.Params["alpha"] = kpl.F32Val(math.Copysign(0, -1))
	if Key(j5.Launch) == Key(j6.Launch) {
		t.Fatal("0.0 and -0.0 must not match")
	}
	// Cache hints are part of the identity a launch is matched by: the merged
	// launch is priced from its members' access streams.
	j7, _ := vecAddJob(t, g, 7, 512)
	hinted := *j7.Launch.Kernel
	hinted.Bufs = append([]kpl.BufDecl(nil), hinted.Bufs...)
	hinted.Bufs[0].L2Fraction = 0.25
	prog, err := kir.Analyze(&hinted)
	if err != nil {
		t.Fatal(err)
	}
	j7.Launch.Kernel, j7.Launch.Prog = &hinted, prog
	if Key(j1.Launch) == Key(j7.Launch) {
		t.Fatal("different cache hints must not match")
	}
}

// TestKeyAllocs: Key runs for every kernel job of every batch, and allocates
// nothing; a parameter the kernel does not declare costs the sorted tail's
// slice.
func TestKeyAllocs(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	j, _ := vecAddJob(t, g, 1, 512)
	if n := testing.AllocsPerRun(100, func() { _ = Key(j.Launch) }); n != 0 {
		t.Errorf("Key allocates %v times, want 0", n)
	}
	j.Launch.Params["alpha"] = kpl.F32Val(0.5)
	if n := testing.AllocsPerRun(100, func() { _ = Key(j.Launch) }); n > 1 {
		t.Errorf("Key with an undeclared parameter allocates %v times, want at most 1", n)
	}
}

func TestApplyGroupsAndWiresDeps(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	const n = 512
	var batch []*sched.Job
	kernelJobs := map[*sched.Job]bool{}
	outs := map[int]devmem.Ptr{}
	for vp := 1; vp <= 3; vp++ {
		kj, out := vecAddJob(t, g, vp, n)
		outs[vp] = out
		pre := sched.NewH2D(vp, vp, kj.Launch.Bindings["a"], 0, make([]byte, 4*n))
		post := sched.NewD2H(vp, vp, out, 0, 4*n)
		batch = append(batch, pre, kj, post)
		kernelJobs[kj] = true
	}
	out := Apply(g, batch)
	// 3 kernels merge into 1: 9 jobs → 7.
	if len(out) != 7 {
		t.Fatalf("Apply produced %d jobs, want 7", len(out))
	}
	var merged *sched.Job
	for _, j := range out {
		if kernelJobs[j] {
			t.Fatal("member kernel survived Apply")
		}
		if j.VP == -1 {
			merged = j
		}
	}
	if merged == nil {
		t.Fatal("no merged job in output")
	}
	if len(merged.Deps) != 3 {
		t.Fatalf("merged deps = %d, want 3 (one per member predecessor)", len(merged.Deps))
	}
	// Each D2H must depend on the merged job.
	for _, j := range out {
		if j.Engine == hostgpu.EngineD2H {
			found := false
			for _, d := range j.Deps {
				if d == merged {
					found = true
				}
			}
			if !found {
				t.Fatal("D2H successor missing dependency on merged job")
			}
		}
	}
	// Execute the planned batch end-to-end; members must complete.
	for _, j := range sched.Plan(out, sched.PolicyInterleave) {
		if err := j.Run(g); err != nil {
			t.Fatal(err)
		}
		if !j.Done() {
			j.Finish(nil)
		}
	}
	for m := range kernelJobs {
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestApplyLeavesNonCoalescable(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	j1, _ := vecAddJob(t, g, 1, 512)
	j2, _ := vecAddJob(t, g, 2, 512)
	j1.Coalescable = false
	j2.Coalescable = false
	out := Apply(g, []*sched.Job{j1, j2})
	if len(out) != 2 || out[0] != j1 || out[1] != j2 {
		t.Fatal("non-coalescable jobs must pass through")
	}
}

func TestApplySameVPNotGrouped(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	j1, _ := vecAddJob(t, g, 1, 512)
	j2, _ := vecAddJob(t, g, 1, 512) // same VP
	out := Apply(g, []*sched.Job{j1, j2})
	if len(out) != 2 {
		t.Fatal("same-VP jobs must not merge in one window")
	}
}

func TestApplySingletonNotMerged(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	j1, _ := vecAddJob(t, g, 1, 512)
	out := Apply(g, []*sched.Job{j1})
	if len(out) != 1 || out[0] != j1 {
		t.Fatal("singleton group must pass through")
	}
}

// TestApplyAllocs: Apply runs on every batch. One in which nothing merges —
// copies, a non-coalescable launch, two keys, one VP's second launch of a
// key — allocates nothing; one that merges pays for the merged job (label,
// members, closures, done channel), its pricing and the rebuilt batch.
func TestApplyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	g.Metrics = metrics.New()
	var batch []*sched.Job
	for vp := 1; vp <= 3; vp++ {
		kj, out := vecAddJob(t, g, vp, 512)
		batch = append(batch, sched.NewH2D(vp, vp, kj.Launch.Bindings["a"], 0, nil), kj, sched.NewD2H(vp, vp, out, 0, 4))
	}
	apply := func(batch []*sched.Job) func() {
		return func() {
			for _, j := range batch {
				j.Deps = j.Deps[:0]
			}
			Apply(g, batch)
		}
	}
	other, _ := vecAddJob(t, g, 2, 256)
	again, _ := vecAddJob(t, g, 1, 512)
	plain, _ := vecAddJob(t, g, 3, 512)
	plain.Coalescable = false
	nothing := []*sched.Job{batch[0], batch[1], other, again, plain, batch[2]}
	apply(nothing)()
	if n := testing.AllocsPerRun(100, apply(nothing)); n != 0 {
		t.Errorf("a batch with nothing to merge: %v allocs, want 0", n)
	}
	apply(batch)()
	const bound = 16
	if n := testing.AllocsPerRun(100, apply(batch)); n > bound {
		t.Errorf("a batch merging three launches: %v allocs, want <= %d", n, bound)
	} else {
		t.Logf("a batch merging three launches: %v allocs", n)
	}
}
