package coalesce

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Key fingerprints a kernel launch for the Kernel Match stage: two launches
// are mergeable when their kernels are structurally identical and their
// block shapes and scalar parameters agree. The kernel's identity is the one
// its analysis recorded and the parameters go in as raw bits in declaration
// order (hostgpu.AppendParams), so matching a launch walks no kernel body and
// allocates nothing.
func Key(l *hostgpu.Launch) uint64 {
	var arr [128]byte
	b := hostgpu.AppendParams(arr[:0], l.Kernel, l.Params)
	w := kpl.NewHash()
	w.U64(l.Prog.Identity())
	for _, n := range [...]int{l.Block, l.SharedMemPerBlock, l.RegsPerThread} {
		w.U64(uint64(n))
	}
	for _, c := range b {
		w.Byte(c)
	}
	return w.Sum()
}

// Apply performs the Kernel Match + merge pass over a batch: groups of ≥2
// coalescable kernel jobs with equal keys (one job per VP at most) are
// replaced by a single merged job. Groups are judged in batch order of their
// first member. The returned batch preserves every remaining job and inserts
// each merged job at its last member's position, with dependencies wired so
// the Re-scheduler cannot hoist it above any member's earlier operations.
// Member jobs are finished by the merged job's execution. A batch in which
// nothing merges is returned as it is, and costs no allocation.
func Apply(g *hostgpu.GPU, batch []*sched.Job) []*sched.Job {
	// A group is a list threaded through next from its first member; the
	// groups, in batch order, are found by a scan of their keys — a batch
	// holds a handful of kernels — so nothing is hashed. For a batch of up to
	// 64 jobs the state lives on the stack.
	var (
		headArr [16]int        // each group's first member
		keyArr  [16]uint64     // and its Key
		nextArr [64]int        // next member of the job's group, -1 at its end
		intoArr [64]*sched.Job // the merged job that replaces a member
		memArr  [16]*sched.Job // the group being judged
	)
	n := len(batch)
	heads, keys, members := headArr[:0], keyArr[:0], memArr[:0]
	next, into := append(nextArr[:0], make([]int, n)...), append(intoArr[:0], make([]*sched.Job, n)...)
	for i, j := range batch {
		if j.Launch == nil || !j.Coalescable {
			continue
		}
		k, h := Key(j.Launch), 0
		for h < len(keys) && keys[h] != k {
			h++
		}
		next[i] = -1
		if h == len(keys) {
			heads, keys = append(heads, i), append(keys, k)
			continue
		}
		p := heads[h]
		for batch[p].VP != j.VP && next[p] >= 0 {
			p = next[p]
		}
		if batch[p].VP != j.VP { // one invocation per VP per merge window
			next[p] = i
		}
	}

	merged := false
	for _, h := range heads {
		if next[h] < 0 {
			continue
		}
		members = members[:0]
		for p := h; p >= 0; p = next[p] {
			members = append(members, batch[p])
		}
		// Kernel Match found a mergeable group; the win predictor decides
		// whether merging actually pays.
		g.Metrics.Counter("coalesce.matches").Inc()
		priced, win := beneficial(g, members)
		if !win {
			g.Metrics.Counter("coalesce.rejected").Inc()
			continue
		}
		g.Metrics.Counter("coalesce.wins").Inc()
		g.Metrics.Counter("coalesce.jobs_merged").Add(int64(len(members)))
		mj := Merge(g, slices.Clone(members))
		mj.Priced = priced
		for p := h; p >= 0; p = next[p] {
			into[p] = mj
		}
		merged = true
	}
	if !merged {
		return batch
	}

	// Rebuild the batch: drop members, insert each merged job at its last
	// member's slot, and wire dependencies across chains.
	out := make([]*sched.Job, 0, n)
	for i, j := range batch {
		// j's predecessor in its (VP, stream) chain, as the rebuilt batch
		// has it: a few chains back, so a scan beats hashing the key.
		p := i - 1
		for p >= 0 && (batch[p].VP != j.VP || batch[p].Stream != j.Stream) {
			p--
		}
		var prev *sched.Job
		if p >= 0 {
			prev = cmp.Or(into[p], batch[p])
		}
		if mj := into[i]; mj != nil {
			// The merged job must run after the member's predecessors, and
			// the member's successors after the merged job.
			if prev != nil {
				mj.Deps = append(mj.Deps, prev)
			}
			if next[i] < 0 {
				out = append(out, mj)
			}
			continue
		}
		// Cross-chain dependency: a job following a coalesced member in its
		// chain must wait for the merged job.
		if p >= 0 && into[p] != nil {
			j.Deps = append(j.Deps, prev)
		}
		out = append(out, j)
	}
	return out
}

// mergedShape is the merged launch's shape: the first member's over
// grid = Σ grids.
func mergedShape(members []*sched.Job) profile.LaunchShape {
	shape := members[0].Launch.Shape()
	shape.Grid = 0
	for _, m := range members {
		shape.Grid += m.Launch.Grid
	}
	return shape
}

// mergedPricing prices the merged launch of a group on the device's timing
// model from its members' pricings (price): σ and access streams are the sums
// of the members', the timing that of mergedShape.
func mergedPricing(g *hostgpu.GPU, members []*sched.Job) (*hostgpu.Priced, error) {
	shape := mergedShape(members)
	var sigma arch.ClassVec
	var accSums []cachemodel.Access
	for _, m := range members {
		p, err := price(g, m)
		if err != nil {
			return nil, err
		}
		sigma = sigma.Add(p.Sigma)
		for i, a := range p.Accesses {
			if i < len(accSums) {
				accSums[i].Accesses += a.Accesses
				accSums[i].Elems += a.Elems
			} else {
				accSums = append(accSums, a)
			}
		}
	}
	threads := float64(shape.Grid * shape.Block)
	return &hostgpu.Priced{
		Sigma:    sigma,
		Accesses: accSums,
		Timing:   hostgpu.KernelTiming(&g.Arch, shape, sigma.Scale(1/threads), accSums),
	}, nil
}

// price returns a member's pricing: the one the job carries, or Price's,
// which the job keeps unless the launch is sampled — a sampled launch is
// priced afresh each time, from the bytes it sees then.
func price(g *hostgpu.GPU, m *sched.Job) (*hostgpu.Priced, error) {
	if m.Priced != nil {
		return m.Priced, nil
	}
	p, err := g.Price(m.Launch)
	if err == nil && !m.Launch.Sampled() {
		m.Priced = p
	}
	return p, err
}

// beneficial predicts whether merging the group actually saves time, using
// the device's own timing model: the merged launch (grid = Σ grids, σ = Σ σ)
// plus the gather/scatter memory-merge traffic must beat the serialized
// constituents. Merging wins when the per-VP grids undersubscribe the device
// or waste alignment (Fig. 10a); it loses when each launch already saturates
// the device and the D2D traffic is pure overhead — which is how the paper's
// coalescing-unfriendly applications behave. A group whose merged regions do
// not fit in the device's free memory is refused as well: merged, all of its
// members would fail with the region's out-of-memory error, where each alone
// runs. (Headroom can still shrink between this plan and the run; runMerged
// keeps its error path for that.)
//
// Each member is priced here and keeps its pricing (price). When merging
// wins and no member is sampled, the merged pricing is returned for the
// merged job to run at; otherwise it is nil and the merged job prices when it
// runs.
func beneficial(g *hostgpu.GPU, members []*sched.Job) (*hostgpu.Priced, bool) {
	var sumSeconds, d2dBytes float64
	var regionBytes int64
	for _, m := range members {
		p, err := price(g, m)
		if err != nil {
			return nil, false
		}
		sumSeconds += p.Timing.Seconds
		for _, decl := range m.Launch.Kernel.Bufs {
			if size, err := g.Mem.Size(m.Launch.Bindings[decl.Name]); err == nil {
				regionBytes += int64(size)
				d2dBytes += float64(size) // gather
				if !decl.ReadOnly {
					d2dBytes += float64(size) // scatter
				}
			}
		}
	}
	if regionBytes > g.Mem.Headroom() {
		return nil, false
	}
	merged, err := mergedPricing(g, members)
	if err != nil || merged.Timing.Seconds+d2dBytes/(g.Arch.MemBWGBps*1e9) >= sumSeconds {
		return nil, false
	}
	for _, m := range members {
		if m.Priced == nil { // sampled
			return nil, true
		}
	}
	return merged, true
}

// Merge builds the coalesced job for a group of matching kernel jobs. On the
// simulated device it is the paper's sequence: device-to-device gathers of
// every input chunk into the merged contiguous regions (Fig. 5), one kernel
// launch over grid = Σ grids whose σ is the sum of the constituents', then
// scatters of the written chunks back. The host pays for the kernels alone:
// the regions are reserved, not filled, the copies priced, not made, and each
// member's kernel runs in place on the member's own allocations (runPieces).
// The member jobs are finished with their share of the result.
func Merge(g *hostgpu.GPU, members []*sched.Job) *sched.Job {
	first := members[0].Launch
	label := "coalesced " + first.Kernel.Name + " ×" + strconv.Itoa(len(members))
	run := func(mj *sched.Job, gpu *hostgpu.GPU) error {
		err := runMerged(mj, gpu, members) // fills member profiles on success
		for _, m := range members {
			m.Interval = mj.Interval
			m.Finish(err)
		}
		return err
	}
	j := sched.NewCustom(-1, -1, hostgpu.EngineCompute, label, run)
	j.Launch = nil // the merged launch is built at execution time
	for _, m := range members {
		j.SubmitTime = max(j.SubmitTime, m.SubmitTime) // the group exists once its last member does
	}
	return j
}

func runMerged(mj *sched.Job, gpu *hostgpu.GPU, members []*sched.Job) error {
	kernel := members[0].Launch.Kernel
	nb := len(kernel.Bufs)

	// Plan the merged regions: chunk[i*nb+b] is member i's bytes of buffer b.
	chunk := make([]int, len(members)*nb)
	regionSize := make([]int, nb)
	for i, m := range members {
		for b, decl := range kernel.Bufs {
			size, err := gpu.Mem.Size(m.Launch.Bindings[decl.Name])
			if err != nil {
				return err
			}
			chunk[i*nb+b] = size
			regionSize[b] += size
		}
	}

	// The regions take device capacity and address space for the length of
	// the job — a group that does not fit fails here, in either exec mode —
	// but no host bytes: nothing reads them.
	regions := make([]devmem.Ptr, 0, nb)
	defer func() {
		for _, ptr := range regions {
			_ = gpu.Mem.Free(ptr) // reserved below, freed once: cannot fail
		}
	}()
	for b, decl := range kernel.Bufs {
		ptr, err := gpu.Mem.Reserve(regionSize[b])
		if err != nil {
			return fmt.Errorf("coalesce: %s: merged %q: %w", kernel.Name, decl.Name, err)
		}
		regions = append(regions, ptr)
	}

	// Gather: a D2D copy of every chunk into its region, priced.
	stream := -1 - mj.VP
	for i := range members {
		for b := range kernel.Bufs {
			gpu.ChargeD2D(stream, chunk[i*nb+b])
		}
	}

	// The merged launch, priced from its members — by the win predictor, or
	// here when a member's λ is sampled — and run as their pieces. A sampled
	// member is priced from the bytes it runs on and keeps that pricing, as
	// an unmerged launch's job does: its target estimate needs the λ it was
	// priced at.
	priced := mj.Priced
	if priced == nil {
		var err error
		for _, m := range members {
			if m.Priced == nil {
				if m.Priced, err = gpu.Price(m.Launch); err != nil {
					return err
				}
			}
		}
		if priced, err = mergedPricing(gpu, members); err != nil {
			return err
		}
	}
	shape := mergedShape(members)
	prof, iv, err := gpu.RunPriced(stream, kernel.Name, shape, priced, func() error {
		return runPieces(gpu, members)
	})
	if err != nil {
		return err
	}
	mj.Interval = iv
	mj.Profile = prof

	// Scatter: written chunks go back to each VP's allocations, priced.
	totalThreads := float64(shape.Grid * shape.Block)
	for i, m := range members {
		for b, decl := range kernel.Bufs {
			if !decl.ReadOnly {
				gpu.ChargeD2D(stream, chunk[i*nb+b])
			}
		}
		// Each member receives a thread-proportional share of the profile.
		share := float64(m.Launch.Threads()) / totalThreads
		pp := *prof
		pp.Sigma = prof.Sigma.Scale(share)
		pp.Cycles *= share
		pp.ComputeCycles *= share
		pp.DataStallCycles *= share
		pp.OverheadCycles *= share
		pp.CacheAccesses *= share
		pp.CacheMisses *= share
		pp.TimeSec *= share
		pp.EnergyJ *= share
		pp.Shape = m.Launch.Shape()
		m.Profile = &pp
	}
	return nil
}

// runPieces is the functional half of a merged launch: every member's kernel
// on the member's own allocations, bound by the unmerged launch's rule
// (hostgpu.Launch.Bind: read-only parameters are views, writable ones private
// copies), so each member computes exactly what it would have alone. A member
// whose run would leave device memory as it is (hostgpu.GPU.Elide) is skipped,
// each one judged before any piece runs, and the pieces that run are recorded
// for the next judgement once every write-back is done; when members share a
// writable allocation, whose final bytes then depend on the write-back order,
// every piece runs and none is recorded. The pieces are independent — their
// writes go to private copies and no device byte changes while a view is
// live — so they fan out over the device's worker budget; a piece without
// native code runs its blocks on kpl's engine on the share of the budget its
// goroutine stands for. The merge stays all-or-nothing: nothing is written
// back until every piece has run without error, then the write-backs go in
// member order (the scatter's order, which decides who wins when two members
// share a writable allocation: each commit swaps the member's copy in and the
// last one stays), and the error returned is the lowest-index piece's, as
// from a serial loop, with every copy released.
func runPieces(gpu *hostgpu.GPU, members []*sched.Job) error {
	elide := !sharesWritable(members)
	run := members
	if elide {
		run = make([]*sched.Job, 0, len(members))
		for _, m := range members {
			if !gpu.Elide(m.Launch) {
				run = append(run, m)
			}
		}
	}
	if len(run) == 0 {
		return nil
	}
	workers := gpu.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fan := min(workers, len(run))
	envs := make([]*kpl.Env, len(run))
	err := par.ForEach(len(run), fan, func(i int) error {
		l := run[i].Launch
		env, err := l.Bind("hostgpu", gpu.Mem)
		if err != nil {
			return err
		}
		envs[i] = env
		return l.Run("hostgpu", env, nil, workers/fan)
	})
	if err != nil {
		for i, env := range envs {
			if env != nil {
				run[i].Launch.Release(env)
			}
		}
		return err
	}
	for i, m := range run {
		if err := m.Launch.WriteBack(gpu.Mem, envs[i]); err != nil {
			return err
		}
	}
	if elide {
		for _, m := range run {
			gpu.RecordRun(m.Launch)
		}
	}
	return nil
}

// sharesWritable reports whether a member binds, writable, an allocation
// another member binds too.
func sharesWritable(members []*sched.Job) bool {
	type binding struct {
		ptr      devmem.Ptr
		member   int
		writable bool
	}
	var arr [64]binding
	all := arr[:0]
	for i, m := range members {
		for _, decl := range m.Launch.Kernel.Bufs {
			all = append(all, binding{m.Launch.Bindings[decl.Name], i, !decl.ReadOnly})
		}
	}
	for _, a := range all {
		if !a.writable {
			continue
		}
		for _, b := range all {
			if b.ptr == a.ptr && b.member != a.member {
				return true
			}
		}
	}
	return false
}
