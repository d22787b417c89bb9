package coalesce

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Key fingerprints a kernel launch for the Kernel Match stage: two launches
// are mergeable when their kernels are structurally identical and their
// block shapes and scalar parameters agree.
func Key(l *hostgpu.Launch) uint64 {
	var arr [128]byte
	b := strconv.AppendUint(arr[:0], l.Kernel.Signature(), 16)
	for _, n := range [...]int{l.Block, l.SharedMemPerBlock, l.RegsPerThread} {
		b = strconv.AppendInt(append(b, '/'), int64(n), 10)
	}
	b = hostgpu.AppendParams(b, l.Params)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
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
// coalescing-unfriendly applications behave.
func beneficial(g *hostgpu.GPU, members []*sched.Job) bool {
	var sumSeconds, d2dBytes float64
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
					d2dBytes += float64(size) // gather
					if !decl.ReadOnly {
						d2dBytes += float64(size) // scatter
					}
				}
			}
		}
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

// piece records one constituent of a merged launch.
type piece struct {
	job     *sched.Job
	offsets map[string]int // byte offset of this piece in each merged buffer
	sizes   map[string]int
}

// Merge builds the coalesced job for a group of matching kernel jobs. Its
// execution: device-to-device gathers of every input chunk into the merged
// contiguous buffers (Fig. 5), one kernel launch over grid = Σ grids whose σ
// is the sum of the constituents', then scatters of the written chunks back.
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

	// Plan the merged buffers.
	pieces := make([]*piece, len(members))
	mergedSize := map[string]int{}
	for i, m := range members {
		p := &piece{job: m, offsets: map[string]int{}, sizes: map[string]int{}}
		for _, decl := range kernel.Bufs {
			ptr, ok := m.Launch.Bindings[decl.Name]
			if !ok {
				return fmt.Errorf("coalesce: %s: vp%d missing buffer %q", kernel.Name, m.VP, decl.Name)
			}
			size, err := gpu.Mem.Size(ptr)
			if err != nil {
				return err
			}
			p.offsets[decl.Name] = mergedSize[decl.Name]
			p.sizes[decl.Name] = size
			mergedSize[decl.Name] += size
		}
		pieces[i] = p
	}

	mergedPtr := map[string]devmem.Ptr{}
	defer func() {
		for _, ptr := range mergedPtr {
			_ = gpu.Mem.Free(ptr)
		}
	}()
	for _, decl := range kernel.Bufs {
		ptr, err := gpu.Mem.Alloc(mergedSize[decl.Name])
		if err != nil {
			return fmt.Errorf("coalesce: %s: merged %q: %w", kernel.Name, decl.Name, err)
		}
		mergedPtr[decl.Name] = ptr
	}

	// Gather: D2D copies of every chunk into the contiguous region.
	stream := -1 - mj.VP
	for _, p := range pieces {
		for _, decl := range kernel.Bufs {
			src := p.job.Launch.Bindings[decl.Name]
			if _, err := gpu.CopyD2D(stream, mergedPtr[decl.Name], p.offsets[decl.Name], src, 0, p.sizes[decl.Name]); err != nil {
				return err
			}
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
		Bindings:          mergedPtr,
		SigmaOverride:     &sigma,
		AccessesOverride:  accesses,
		ExecOverride: func(mem *devmem.Mem) error {
			// Execute each constituent on its slice of the merged buffers,
			// preserving per-VP semantics exactly.
			for _, p := range pieces {
				env := &kpl.Env{
					NThreads: p.job.Launch.Threads(),
					Params:   p.job.Launch.Params,
					Bufs:     map[string]*kpl.Buffer{},
				}
				if env.Params == nil {
					env.Params = map[string]kpl.Value{}
				}
				for i := range kernel.Bufs {
					decl := &kernel.Bufs[i]
					buf, err := mem.BindParamRange(mergedPtr[decl.Name], p.offsets[decl.Name], p.sizes[decl.Name], decl)
					if err != nil {
						return err
					}
					env.Bufs[decl.Name] = buf
				}
				if p.job.Launch.Native != nil {
					if err := p.job.Launch.Native(env); err != nil {
						return err
					}
				} else if err := kernel.ExecBlocks(env, nil, p.job.Launch.Block, gpu.Workers); err != nil {
					return err
				}
				for _, decl := range kernel.Bufs {
					if decl.ReadOnly {
						continue
					}
					if err := mem.WriteBufferRange(mergedPtr[decl.Name], p.offsets[decl.Name], env.Bufs[decl.Name]); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}

	prof, iv, err := gpu.Launch(stream, merged)
	if err != nil {
		return err
	}
	mj.Interval = iv
	mj.Profile = prof

	// Scatter: written chunks go back to each VP's allocations.
	totalThreads := float64(merged.Threads())
	for _, p := range pieces {
		for _, decl := range kernel.Bufs {
			if decl.ReadOnly {
				continue
			}
			dst := p.job.Launch.Bindings[decl.Name]
			if _, err := gpu.CopyD2D(stream, dst, 0, mergedPtr[decl.Name], p.offsets[decl.Name], p.sizes[decl.Name]); err != nil {
				return err
			}
		}
		// Each member receives a thread-proportional share of the profile.
		share := float64(p.job.Launch.Threads()) / totalThreads
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
		pp.Shape = profile.LaunchShape{
			Grid:              p.job.Launch.Grid,
			Block:             p.job.Launch.Block,
			SharedMemPerBlock: p.job.Launch.SharedMemPerBlock,
			RegsPerThread:     p.job.Launch.RegsPerThread,
		}
		p.job.Profile = &pp
	}
	return nil
}
