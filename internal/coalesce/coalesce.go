package coalesce

import (
	"fmt"
	"runtime"

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
// replaced by a single merged job. The returned batch preserves every
// remaining job and inserts each merged job at its last member's position,
// with dependencies wired so the Re-scheduler cannot hoist it above any
// member's earlier operations. Member jobs are finished by the merged job's
// execution.
func Apply(g *hostgpu.GPU, batch []*sched.Job) []*sched.Job {
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
		if !beneficial(g, members) {
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

// mergedPricing sums the members' σ, access streams and grids.
func mergedPricing(g *hostgpu.GPU, members []*sched.Job) (arch.ClassVec, []cachemodel.Access, int, error) {
	var sigma arch.ClassVec
	var accSums []cachemodel.Access
	grid := 0
	for _, m := range members {
		s, accs, err := g.ResolveSigma(m.Launch)
		if err != nil {
			return arch.ClassVec{}, nil, 0, err
		}
		sigma = sigma.Add(s)
		for i, a := range accs {
			if i < len(accSums) {
				accSums[i].Accesses += a.Accesses
				accSums[i].Elems += a.Elems
			} else {
				accSums = append(accSums, a)
			}
		}
		grid += m.Launch.Grid
	}
	return sigma, accSums, grid, nil
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
func beneficial(g *hostgpu.GPU, members []*sched.Job) bool {
	var sumSeconds, d2dBytes float64
	var regionBytes int64
	for _, m := range members {
		// The trial timing rides the device's launch-signature cache, so the
		// win predictor prices repeated identical launches in O(1).
		_, _, tm, err := g.LaunchTiming(m.Launch)
		if err != nil {
			return false
		}
		sumSeconds += tm.Seconds
		for _, decl := range m.Launch.Kernel.Bufs {
			if ptr, ok := m.Launch.Bindings[decl.Name]; ok {
				if size, err := g.Mem.Size(ptr); err == nil {
					regionBytes += int64(size)
					d2dBytes += float64(size) // gather
					if !decl.ReadOnly {
						d2dBytes += float64(size) // scatter
					}
				}
			}
		}
	}
	if regionBytes > g.Mem.Headroom() {
		return false
	}
	sigma, accs, grid, err := mergedPricing(g, members)
	if err != nil {
		return false
	}
	first := members[0].Launch
	mergedShape := profile.LaunchShape{
		Grid:              grid,
		Block:             first.Block,
		SharedMemPerBlock: first.SharedMemPerBlock,
		RegsPerThread:     first.RegsPerThread,
	}
	threads := float64(grid * first.Block)
	mergedTiming := hostgpu.KernelTiming(&g.Arch, mergedShape, sigma.Scale(1/threads), accs)
	mergedSeconds := mergedTiming.Seconds + d2dBytes/(g.Arch.MemBWGBps*1e9)
	return mergedSeconds < sumSeconds
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
	label := fmt.Sprintf("coalesced %s ×%d", first.Kernel.Name, len(members))
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
	return j
}

func runMerged(mj *sched.Job, gpu *hostgpu.GPU, members []*sched.Job) error {
	first := members[0].Launch
	kernel := first.Kernel
	nb := len(kernel.Bufs)

	// Plan the merged regions: chunk[i*nb+b] is member i's bytes of buffer b.
	chunk := make([]int, len(members)*nb)
	regionSize := make([]int, nb)
	for i, m := range members {
		for b, decl := range kernel.Bufs {
			ptr, ok := m.Launch.Bindings[decl.Name]
			if !ok {
				return fmt.Errorf("coalesce: %s: vp%d missing buffer %q", kernel.Name, m.VP, decl.Name)
			}
			size, err := gpu.Mem.Size(ptr)
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
	regions := make(map[string]devmem.Ptr, nb)
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
		regions[decl.Name] = ptr
	}

	// Gather: a D2D copy of every chunk into its region, priced.
	stream := -1 - mj.VP
	for i := range members {
		for b := range kernel.Bufs {
			gpu.ChargeD2D(stream, chunk[i*nb+b])
		}
	}

	// Price the merged launch: σ and access streams are the sums of the
	// constituents'.
	sigma, accesses, grid, err := mergedPricing(gpu, members)
	if err != nil {
		return err
	}

	merged := &hostgpu.Launch{
		Kernel:            kernel,
		Prog:              first.Prog,
		Grid:              grid,
		Block:             first.Block,
		SharedMemPerBlock: first.SharedMemPerBlock,
		RegsPerThread:     first.RegsPerThread,
		Params:            first.Params,
		Bindings:          regions,
		SigmaOverride:     &sigma,
		AccessesOverride:  accesses,
		ExecOverride: func(mem *devmem.Mem) error {
			return runPieces(mem, gpu.Workers, members)
		},
	}

	prof, iv, err := gpu.Launch(stream, merged)
	if err != nil {
		return err
	}
	mj.Interval = iv
	mj.Profile = prof

	// Scatter: written chunks go back to each VP's allocations, priced.
	totalThreads := float64(merged.Threads())
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
// copies), so each member computes exactly what it would have alone. The
// pieces are independent — their writes go to private copies and no device
// byte changes while a view is live — so they fan out over the device's
// worker budget; a piece without native code interprets its blocks on the
// share of the budget its goroutine stands for. The merge stays
// all-or-nothing: nothing is written back until every piece has run without
// error, then the write-backs go in member order (the scatter's order, which
// decides who wins when two members share a writable allocation), and the
// error returned is the lowest-index piece's, as from a serial loop.
func runPieces(mem *devmem.Mem, workers int, members []*sched.Job) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fan := min(workers, len(members))
	envs := make([]*kpl.Env, len(members))
	err := par.ForEach(len(members), fan, func(i int) error {
		l := members[i].Launch
		env, err := l.Bind("hostgpu", mem)
		if err != nil {
			return err
		}
		envs[i] = env
		return l.Run("hostgpu", env, nil, workers/fan)
	})
	if err != nil {
		return err
	}
	for i, m := range members {
		if err := m.Launch.WriteBack(mem, envs[i]); err != nil {
			return err
		}
	}
	return nil
}
