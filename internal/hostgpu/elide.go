package hostgpu

import (
	"bytes"

	"repro/internal/devmem"
	"repro/internal/kpl"
)

// A launch that cannot change device memory is not re-run.
//
// The functional half of a launch (Bind → Run → WriteBack) only produces
// bytes; its price, its place on the engines, its profile and its energy come
// from its pricing. A write-only kernel (kir.Program.WriteOnly) stores what its
// read-only buffers, its parameters and its geometry decide — a native matches
// its kernel body bit for bit — so when the launch that last wrote its writable
// allocations was this same launch, and no allocation it binds has changed
// since (devmem.Mem.Gen), running it again rewrites the bytes already there and
// cannot fault. Elide finds such a launch from the record RecordRun left;
// everything but the functional half still happens.

// runRecord is the last successful run of an elidable launch that wrote an
// allocation: what the launch was, and the generation of every allocation it
// bound right after its write-back.
type runRecord struct {
	kernel      *kpl.Kernel
	native      bool
	grid, block int
	params      []byte       // AppendParams
	ptrs        []devmem.Ptr // bindings in declaration order
	gens        []uint64     // their generations after the write-back
	key         int          // index of the binding the record is filed under
}

// maxElisionBufs sizes the stack array Elide and RecordRun gather bindings
// into; the registry's widest kernel has five buffers, a wider one spills to
// the heap.
const maxElisionBufs = 8

// elisionBindings gathers l's bindings in declaration order into dst and the
// index of its first writable one, or reports that l can never be elided: the
// kernel is not write-only, no buffer is writable, or a writable binding
// shares its allocation with another binding (whose bytes the run would then
// read after, or write over, its own). Only the functional half of a launch
// asks, so only a device that runs its kernels.
func elisionBindings(dst []devmem.Ptr, l *Launch) ([]devmem.Ptr, int, bool) {
	if !l.Prog.WriteOnly() {
		return nil, 0, false
	}
	key := -1
	for i := range l.Kernel.Bufs {
		decl := &l.Kernel.Bufs[i]
		if !decl.ReadOnly && l.aliased(decl.Name) {
			return nil, 0, false
		}
		dst = append(dst, l.Bindings[decl.Name])
		if key < 0 && !decl.ReadOnly {
			key = i
		}
	}
	if key < 0 {
		return nil, 0, false
	}
	return dst, key, true
}

// Elide reports whether l's functional half may be skipped because running it
// now would leave every device byte as it is, and counts each launch it
// elides (Elided). It holds when the last successful run recorded under l's
// first writable allocation (RecordRun) was the same launch — the same kernel,
// the same native presence, grid and block, the same parameters bit for bit
// and the same bindings in declaration order — and every allocation l binds
// still has the generation it had right after that run's write-back. Call it
// where the device's functional half runs, on the device's token holder.
func (g *GPU) Elide(l *Launch) bool {
	var arr [maxElisionBufs]devmem.Ptr
	ptrs, key, ok := elisionBindings(arr[:0], l)
	if !ok {
		return false
	}
	g.recMu.Lock()
	defer g.recMu.Unlock()
	r := g.records[ptrs[key]]
	if r == nil || r.kernel != l.Kernel || r.native != (l.Native != nil) || r.grid != l.Grid || r.block != l.Block || len(r.ptrs) != len(ptrs) {
		return false
	}
	for i, p := range ptrs {
		if r.ptrs[i] != p || g.Mem.Gen(p) != r.gens[i] {
			return false
		}
	}
	var pb [128]byte
	if !bytes.Equal(r.params, AppendParams(pb[:0], l.Kernel, l.Params)) {
		return false
	}
	g.elided.Add(1)
	return true
}

// RecordRun notes a successful run of l whose write-back is done, for Elide;
// a launch Elide could never skip records nothing. The record is filed under
// l's first writable allocation and replaces the one there in place. Records
// whose allocation has since been freed or written are dropped whenever their
// number doubles, so they never outnumber twice the live allocations of the
// last such sweep (or 64).
func (g *GPU) RecordRun(l *Launch) {
	var arr [maxElisionBufs]devmem.Ptr
	ptrs, key, ok := elisionBindings(arr[:0], l)
	if !ok {
		return
	}
	g.recMu.Lock()
	defer g.recMu.Unlock()
	r := g.records[ptrs[key]]
	if r == nil {
		if len(g.records) >= g.recordSweep {
			for p, old := range g.records {
				if g.Mem.Gen(p) != old.gens[old.key] {
					delete(g.records, p)
				}
			}
			g.recordSweep = max(64, 2*len(g.records))
		}
		if g.records == nil {
			g.records = map[devmem.Ptr]*runRecord{}
		}
		r = &runRecord{}
		g.records[ptrs[key]] = r
	}
	r.kernel, r.native, r.grid, r.block, r.key = l.Kernel, l.Native != nil, l.Grid, l.Block, key
	r.params = AppendParams(r.params[:0], l.Kernel, l.Params)
	r.ptrs = append(r.ptrs[:0], ptrs...)
	r.gens = r.gens[:0]
	for _, p := range ptrs {
		r.gens = append(r.gens, g.Mem.Gen(p))
	}
}

// Elided returns how many launches Elide has skipped on the device.
func (g *GPU) Elided() int64 { return g.elided.Load() }
