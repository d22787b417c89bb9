package kpl

import (
	"runtime"
	"sync"
)

// HasAtomics reports whether the kernel body contains an atomic
// read-modify-write. Atomic kernels are executed serially by ExecBlocks:
// a parallel fold of floating-point atomics would change the accumulation
// order and therefore the bit pattern of the result.
func (k *Kernel) HasAtomics() bool { return k.hasAtomics(k.resolveProgram()) }

// hasAtomics answers from the compiled program, which recorded it once; only
// uncompilable kernels walk the AST per call.
func (k *Kernel) hasAtomics(p *Program) bool {
	if p != nil {
		return p.atomics
	}
	return stmtsHaveAtomics(k.Body)
}

func stmtsHaveAtomics(ss []Stmt) bool {
	for _, s := range ss {
		switch x := s.(type) {
		case *AtomicAddStmt:
			return true
		case *ForStmt:
			if stmtsHaveAtomics(x.Body) {
				return true
			}
		case *IfStmt:
			if stmtsHaveAtomics(x.Then) || stmtsHaveAtomics(x.Else) {
				return true
			}
		}
	}
	return false
}

// Merge folds other into s. Every counter is an integer count (held exactly
// in float64 far below 2^53), so the fold is exact regardless of grouping —
// but callers still merge in ascending block order so the reduction order is
// fixed for any worker count.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	s.ensureMaps()
	s.Instr = s.Instr.Add(other.Instr)
	for k, v := range other.Trips {
		s.Trips[k] += v
	}
	for k, v := range other.Entries {
		s.Entries[k] += v
	}
	for k, v := range other.BufLd {
		s.BufLd[k] += v
	}
	for k, v := range other.BufSt {
		s.BufSt[k] += v
	}
	s.Threads += other.Threads
}

// shadowPool recycles per-worker shadow buffers across launches. Experiment
// sweeps relaunch the same kernels thousands of times; without the pool every
// launch re-allocates a full copy of each writable buffer per worker.
var shadowPool = sync.Pool{New: func() any { return new(Buffer) }}

// shadowOf returns a pooled, write-tracking copy of b for one worker.
func shadowOf(b *Buffer) *Buffer {
	s := shadowPool.Get().(*Buffer)
	s.Elem = b.Elem
	s.F32s, s.F64s, s.I32s = s.F32s[:0], s.F64s[:0], s.I32s[:0]
	switch b.Elem {
	case F32:
		s.F32s = append(s.F32s, b.F32s...)
	case F64:
		s.F64s = append(s.F64s, b.F64s...)
	default:
		s.I32s = append(s.I32s, b.I32s...)
	}
	n := b.Len()
	if cap(s.written) < n {
		s.written = make([]bool, n)
	} else {
		s.written = s.written[:n]
		clear(s.written)
	}
	return s
}

func releaseShadow(s *Buffer) { shadowPool.Put(s) }

// threadSpan is a contiguous range of thread indices covering whole blocks.
type threadSpan struct{ lo, hi int }

// blockSpans partitions nBlocks thread blocks of blockSize threads into
// workers contiguous spans of near-equal block counts, clipped to n threads.
func blockSpans(n, blockSize, nBlocks, workers int) []threadSpan {
	spans := make([]threadSpan, workers)
	q, r := nBlocks/workers, nBlocks%workers
	b0 := 0
	for w := 0; w < workers; w++ {
		nb := q
		if w < r {
			nb++
		}
		lo := b0 * blockSize
		hi := (b0 + nb) * blockSize
		if hi > n {
			hi = n
		}
		spans[w] = threadSpan{lo: lo, hi: hi}
		b0 += nb
	}
	return spans
}

// ExecBlocks interprets every thread of the launch with thread blocks of
// blockSize threads fanned out over a pool of workers goroutines
// (workers <= 0 selects runtime.NumCPU()). Results are bit-identical to
// ExecAll for any worker count:
//
//   - blocks are independent by CUDA semantics, so each worker executes a
//     contiguous ascending run of whole blocks against a private shadow copy
//     of every writable buffer (read-only buffers are shared);
//   - shadow writes are merged back in worker (= block) order, so when two
//     blocks write the same element the highest block wins — exactly the
//     serial thread-order outcome;
//   - dynamic statistics are folded per worker and reduced in the same fixed
//     order; every counter is an integer, so the fold is exact;
//   - when a thread faults, the reduction stops after the lowest worker that
//     failed: the workers below it ran every thread the serial run would have,
//     that worker stopped where the serial run stops, and what the workers
//     above it did the serial run never reached.
//
// Kernels containing atomics fall back to serial interpretation (a parallel
// atomic fold would reorder floating-point accumulation), as do single-block
// and single-worker launches.
func (k *Kernel) ExecBlocks(env *Env, st *Stats, blockSize, workers int) error {
	// Resolve the compiled program once per launch; every worker shares it.
	return k.execBlocks(k.resolveProgram(), env, st, blockSize, workers)
}

// execBlocks is ExecBlocks on the given program, or on the interpreter when
// p is nil.
func (k *Kernel) execBlocks(p *Program, env *Env, st *Stats, blockSize, workers int) error {
	if st != nil {
		st.ensureMaps()
	}
	n := env.NThreads
	if n <= 0 {
		return nil
	}
	if blockSize <= 0 || blockSize > n {
		blockSize = n
	}
	nBlocks := (n + blockSize - 1) / blockSize
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 || k.hasAtomics(p) {
		return k.execStride(p, 0, n, 1, env, st)
	}

	spans := blockSpans(n, blockSize, nBlocks, workers)
	envs := make([]*Env, workers)
	stats := make([]*Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range spans {
		we := &Env{NThreads: n, Params: env.Params, Bufs: make(map[string]*Buffer, len(env.Bufs))}
		for name, b := range env.Bufs {
			decl := k.Buf(name)
			if decl != nil && decl.ReadOnly {
				we.Bufs[name] = b // never written (enforced by Validate)
				continue
			}
			we.Bufs[name] = shadowOf(b)
		}
		envs[w] = we
		if st != nil {
			stats[w] = NewStats()
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = k.execStride(p, spans[w].lo, spans[w].hi, 1, envs[w], stats[w])
		}(w)
	}
	wg.Wait()

	// Deterministic reduction: workers own contiguous ascending block
	// ranges, so folding their results in index order reproduces the serial
	// thread order exactly — up to and including the first that failed.
	var err error
	for w := range envs {
		if err == nil {
			if st != nil {
				st.Merge(stats[w])
			}
			for name, shadow := range envs[w].Bufs {
				if dst := env.Bufs[name]; dst != nil && dst != shadow {
					dst.applyWrites(shadow)
				}
			}
			err = errs[w]
		}
		for name, shadow := range envs[w].Bufs {
			if shadow != env.Bufs[name] {
				releaseShadow(shadow)
			}
		}
	}
	return err
}
