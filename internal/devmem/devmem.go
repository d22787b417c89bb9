package devmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/kpl"
)

// ErrBadAllocSize reports an allocation request whose size is non-positive or
// so large that rounding it to the address-space granule would overflow int.
// It is a request error, not an out-of-memory condition: no amount of freeing
// makes such a request satisfiable.
var ErrBadAllocSize = errors.New("devmem: bad allocation size")

// ErrSpanBusy reports an AllocAt target span that overlaps a live
// allocation. Migration callers treat it as "cannot keep the original
// address" and fall back to a fresh Alloc plus a pointer-rebase entry.
var ErrSpanBusy = errors.New("devmem: span busy")

// ErrNoBytes reports a kernel bind or write-back of a byte-less allocation
// (NewUnbacked): there are no bytes to hand a kernel, or to sample λ from, and
// none to store its output in. Only functional execution and pricing that
// samples λ bind, and a timing-only device never runs its kernels, so a
// launch priced there must bring its λ.
var ErrNoBytes = errors.New("devmem: allocation keeps no bytes")

// maxAlloc is the largest request alignSpan can round up without the
// (n + 255) sum wrapping negative.
const maxAlloc = math.MaxInt - 255

// base is the first device address ever handed out. Keeping it non-zero
// preserves the CUDA convention that a zero pointer is never valid.
const base Ptr = 0x1000

// Ptr is an opaque device pointer.
type Ptr uint64

// span is one reserved or free region of the device address space.
type span struct {
	addr Ptr
	size Ptr // aligned length in bytes
}

// Mem is one device's memory. It is safe for concurrent use.
type Mem struct {
	mu       sync.Mutex
	next     Ptr
	allocs   map[Ptr]*allocation // every allocation and reservation, by ptr
	free     []span              // address-sorted, coalesced free regions
	used     int64
	capacity int64
	moves    Moves
	gen      uint64 // the last generation handed out (Gen)
	byteless bool   // Alloc and AllocAt make byte-less allocations (NewUnbacked)
}

// allocation is one live allocation or reservation: its bytes, its place in
// the address space, its generation, and how its copy-ins have compared
// (unchanged).
type allocation struct {
	b    []byte // nil for a byte-less allocation and for a reservation
	n    int    // size in bytes
	span Ptr    // aligned span length
	gen  uint64 // a value of Mem.gen, taken afresh by every change
	// misses counts the copy-in compares in a row that found new bytes, and
	// skip the copy-ins still to take as new without a compare.
	misses, skip uint8
	reservation  bool // made by Reserve: every byte access is an error
}

// Gen returns the generation of the allocation or reservation at p, or 0 when
// there is none. It changes whenever the allocation's bytes may have changed
// — every fill, write-back or commit, and every write or adoption that
// changes a byte or is not compared (unchanged) — and a freed address
// allocated again starts a generation no earlier allocation ever had, so
// equal generations mean the same allocation with the same bytes.
func (m *Mem) Gen(p Ptr) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a := m.allocs[p]; a != nil {
		return a.gen
	}
	return 0
}

// bump gives a a fresh generation. The caller holds mu.
func (m *Mem) bump(a *allocation) {
	m.gen++
	a.gen = m.gen
}

// Moves counts how bytes entered allocations, for the host's accounting: H2D
// bytes adopted (Adopt of a whole allocation) or copied (Write, any other
// Adopt), H2D bytes compared equal to the range they were to overwrite and so
// moved nowhere and kept the generation (Write or Adopt), write-backs swapped
// in (Commit) or copied (WriteBuffer), and the bytes of writable copies
// BindParam left unfilled because the launch overwrites them.
type Moves struct {
	AdoptedBytes, CopiedBytes, UnchangedBytes int64
	Swapped, Copied                           int64
	UncopiedBytes                             int64
}

// Moves returns the counts so far.
func (m *Mem) Moves() Moves {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.moves
}

// New returns a device memory of the given capacity in bytes.
func New(capacity int64) *Mem {
	return &Mem{next: base, allocs: map[Ptr]*allocation{}, capacity: capacity}
}

// NewUnbacked returns a device memory of the given capacity whose allocations
// keep no bytes: a timing-only device's (hostgpu.NewTimingOnly). Alloc and
// AllocAt place, size, account and version a byte-less allocation exactly as
// on a memory from New, and it costs the host nothing however large it is;
// the package documentation lists what each access does to it.
func NewUnbacked(capacity int64) *Mem {
	m := New(capacity)
	m.byteless = true
	return m
}

// alignSpan rounds an allocation up to the address-space granule, keeping
// allocations aligned and non-overlapping. Callers must pre-validate
// n ∈ [1, maxAlloc]: near MaxInt the (n + 255) sum wraps negative and the
// span would silently collapse.
func alignSpan(n int) Ptr { return Ptr((n + 255) &^ 255) }

// Alloc reserves n bytes and returns the device pointer. Address space is
// reused first-fit from freed regions; the bump pointer only grows when no
// freed region fits, so a long-running alloc/free churn stays bounded.
// Requests outside [1, maxAlloc] fail with ErrBadAllocSize. On a memory from
// NewUnbacked the allocation is byte-less.
func (m *Mem) Alloc(n int) (Ptr, error) { return m.alloc(n, false) }

// Reserve is Alloc without the bytes: the same checks, errors, first-fit
// address and accounting (Used, Headroom, HighWater, Size, Free), but no
// backing store, so it costs the host nothing however large n is. Every byte
// access to a reservation — Write, Fill, Read, Copy, a kernel binding — is an
// error. Its one caller is the coalescer, which reserves a merged launch's
// contiguous regions with it (they occupy device capacity and address space
// for the length of the job, and nothing ever reads them); a reservation must
// be freed before the job ends, so Export never meets one.
func (m *Mem) Reserve(n int) (Ptr, error) { return m.alloc(n, true) }

// alloc is the one body of Alloc and Reserve.
func (m *Mem) alloc(n int, reservation bool) (Ptr, error) {
	if n <= 0 || n > maxAlloc {
		return 0, fmt.Errorf("devmem: alloc of %d bytes: %w", n, ErrBadAllocSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Compare against headroom rather than summing used+n, which can wrap
	// negative when n is near MaxInt and admit an impossible allocation.
	if int64(n) > m.capacity-m.used {
		return 0, fmt.Errorf("devmem: out of memory: %d requested, %d free", n, m.capacity-m.used)
	}
	need := alignSpan(n)
	var p Ptr
	fit := -1
	for i, f := range m.free {
		if f.size >= need {
			fit = i
			break
		}
	}
	if fit >= 0 {
		f := m.free[fit]
		p = f.addr
		if f.size == need {
			m.free = append(m.free[:fit], m.free[fit+1:]...)
		} else {
			m.free[fit] = span{addr: f.addr + need, size: f.size - need}
		}
	} else {
		p = m.next
		m.next += need
	}
	m.place(p, n, reservation)
	return p, nil
}

// place enters the allocation or reservation of n bytes at p, whose span the
// caller has taken from the address space, under a fresh generation. The
// caller holds mu.
func (m *Mem) place(p Ptr, n int, reservation bool) {
	a := &allocation{n: n, span: alignSpan(n), reservation: reservation}
	if !reservation && !m.byteless {
		a.b = make([]byte, n)
	}
	m.bump(a)
	m.allocs[p] = a
	m.used += int64(n)
}

// AllocAt reserves n bytes at exactly the device address p, used by
// checkpoint restore and migration to keep guest pointers valid without
// translation. The target span must be free: it either lies inside a single
// free-list region (which is carved around it) or beyond the bump pointer
// (the gap up to p, if any, joins the free list). A span overlapping a live
// allocation fails with ErrSpanBusy; size validation and the headroom check
// match Alloc, including the PR 9 overflow guards.
func (m *Mem) AllocAt(p Ptr, n int) error {
	if n <= 0 || n > maxAlloc {
		return fmt.Errorf("devmem: alloc of %d bytes at %#x: %w", n, uint64(p), ErrBadAllocSize)
	}
	need := alignSpan(n)
	if p < base || p+need < p {
		return fmt.Errorf("devmem: alloc at invalid pointer %#x", uint64(p))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int64(n) > m.capacity-m.used {
		return fmt.Errorf("devmem: out of memory: %d requested at %#x, %d free", n, uint64(p), m.capacity-m.used)
	}
	end := p + need
	if p >= m.next {
		if p > m.next {
			m.insertFree(span{addr: m.next, size: p - m.next})
		}
		m.next = end
	} else {
		// Inside the touched address space the target must sit wholly
		// within one free region (free regions are coalesced, so a free
		// target can never straddle two).
		fit := -1
		for i, f := range m.free {
			if f.addr <= p && end <= f.addr+f.size {
				fit = i
				break
			}
		}
		if fit < 0 {
			return fmt.Errorf("devmem: alloc of %d bytes at %#x: %w", n, uint64(p), ErrSpanBusy)
		}
		f := m.free[fit]
		m.free = append(m.free[:fit], m.free[fit+1:]...)
		if f.addr < p {
			m.insertFree(span{addr: f.addr, size: p - f.addr})
		}
		if end < f.addr+f.size {
			m.insertFree(span{addr: end, size: f.addr + f.size - end})
		}
	}
	m.place(p, n, false)
	return nil
}

// Entry is one exported allocation: its device pointer and a private copy of
// its backing bytes. A sorted []Entry is the wire/disk representation of an
// arena's live contents (the free list is derivable and not exported).
type Entry struct {
	Ptr  Ptr
	Data []byte
}

// Export snapshots every live allocation, sorted by address, with private
// byte copies (zeros for a byte-less one). Re-creating the result in a fresh
// arena of the same capacity (AllocAt, then Write) reproduces Used, Headroom and HighWater exactly: reserved spans land at
// their original addresses, interior gaps rebuild the free list, and the
// bump pointer converges to the end of the last reserved span (which is
// where retraction pins it on the source arena).
func (m *Mem) Export() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Entry, 0, len(m.allocs))
	for p, a := range m.allocs {
		if !a.reservation {
			data := make([]byte, a.n)
			copy(data, a.b)
			out = append(out, Entry{Ptr: p, Data: data})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ptr < out[j].Ptr })
	return out
}

// Free releases the allocation at p, returning its address-space span to the
// free list. Adjacent free regions merge, and a free region that ends at the
// bump pointer retracts it, so Used() going flat means the address space is
// flat too (before this, next only ever grew and a malloc/free loop would
// exhaust the 64-bit space while Used() stayed at zero).
func (m *Mem) Free(p Ptr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.allocs[p]
	if !ok {
		return fmt.Errorf("devmem: free of invalid pointer %#x", uint64(p))
	}
	m.used -= int64(a.n)
	delete(m.allocs, p)
	m.insertFree(span{addr: p, size: a.span})
	// Retract the bump pointer over a trailing free region.
	for n := len(m.free); n > 0; n = len(m.free) {
		tail := m.free[n-1]
		if tail.addr+tail.size != m.next {
			break
		}
		m.next = tail.addr
		m.free = m.free[:n-1]
	}
	return nil
}

// insertFree adds a span to the address-sorted free list, merging it with
// adjacent regions.
func (m *Mem) insertFree(s span) {
	i := 0
	for i < len(m.free) && m.free[i].addr < s.addr {
		i++
	}
	// Merge with the predecessor when contiguous.
	if i > 0 && m.free[i-1].addr+m.free[i-1].size == s.addr {
		m.free[i-1].size += s.size
		// The grown predecessor may now touch the successor.
		if i < len(m.free) && m.free[i-1].addr+m.free[i-1].size == m.free[i].addr {
			m.free[i-1].size += m.free[i].size
			m.free = append(m.free[:i], m.free[i+1:]...)
		}
		return
	}
	// Merge with the successor when contiguous.
	if i < len(m.free) && s.addr+s.size == m.free[i].addr {
		m.free[i].addr = s.addr
		m.free[i].size += s.size
		return
	}
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = s
}

// Size returns the byte length of the allocation or reservation at p.
func (m *Mem) Size(p Ptr) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.allocs[p]
	if !ok {
		return 0, fmt.Errorf("devmem: size of invalid pointer %#x", uint64(p))
	}
	return a.n, nil
}

// lookup returns the allocation at p for the named access ("write to", "read
// from", …). A reservation has no bytes, so touching it is an error like
// touching a pointer never handed out. The caller holds mu.
func (m *Mem) lookup(p Ptr, access string) (*allocation, error) {
	a, ok := m.allocs[p]
	switch {
	case !ok:
		return nil, fmt.Errorf("devmem: %s invalid pointer %#x", access, uint64(p))
	case a.reservation:
		return nil, fmt.Errorf("devmem: %s reservation %#x, which has no bytes", access, uint64(p))
	}
	return a, nil
}

// within is lookup for an access of [off, off+n), which must lie inside the
// allocation. The caller holds mu.
func (m *Mem) within(p Ptr, access string, off, n int) (*allocation, error) {
	a, err := m.lookup(p, access)
	if err == nil && !inRange(off, n, a.n) {
		err = fmt.Errorf("devmem: %s [%d,%d) outside allocation of %d bytes", access, off, off+n, a.n)
	}
	return a, err
}

// withBytes is lookup for a kernel's access, which needs the bytes
// themselves: a byte-less allocation is refused with ErrNoBytes. The caller
// holds mu.
func (m *Mem) withBytes(p Ptr, access string) (*allocation, error) {
	a, err := m.lookup(p, access)
	if err == nil && a.b == nil {
		err = fmt.Errorf("devmem: %s %#x: %w", access, uint64(p), ErrNoBytes)
	}
	return a, err
}

// Used returns the total allocated bytes.
func (m *Mem) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Capacity returns the device memory size in bytes.
func (m *Mem) Capacity() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity
}

// Headroom returns the unallocated bytes (capacity − used) — the quantity
// memory-aware multi-GPU placement scores devices by.
func (m *Mem) Headroom() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity - m.used
}

// HighWater returns the bump pointer: the end of the address space ever
// touched. Under alloc/free churn it stays bounded by the peak working set
// (the free-list regression tests pin this).
func (m *Mem) HighWater() Ptr {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

// inRange reports whether [off, off+n) lies inside an allocation of size
// bytes — the one range check on device memory. off and n come from the
// guest, so it never computes off+n: that sum can wrap negative and pass a
// naive comparison.
func inRange(off, n, size int) bool {
	return off >= 0 && n >= 0 && n <= size-off
}

// Write copies data into the allocation at p starting at off (an H2D copy).
// Data compared equal to the bytes it would overwrite (unchanged) is not
// copied, and the allocation keeps its generation.
func (m *Mem) Write(p Ptr, off int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.within(p, "write to", off, len(data))
	if err == nil {
		m.copyIn(a, off, data)
	}
	return err
}

// copyIn copies data into a at off, which the caller has checked, and counts
// it as copied unless the range already holds it. A byte-less allocation
// stores nothing and takes a fresh generation. The caller holds mu.
func (m *Mem) copyIn(a *allocation, off int, data []byte) {
	if a.b != nil {
		if m.unchanged(a, a.b[off:off+len(data)], data) {
			return
		}
		copy(a.b[off:], data)
		m.moves.CopiedBytes += int64(len(data))
	}
	m.bump(a)
}

// The copy-in compare backs off on an allocation whose copy-ins keep bringing
// new bytes, since each such compare is a read pass for nothing: once
// backoffAfter compares in a row have found a difference, each further one
// makes the next 2^k − 1 copy-ins skip the compare, k = 1, 2, … up to
// maxBackoff. A guest that streams fresh input then pays the pass on one
// copy-in in 64, and one that goes back to re-sending equal bytes keeps its
// generation again within 63 copy-ins.
const backoffAfter, maxBackoff = 3, 6

// unchanged reports whether data equals dst, the range of a it is to
// overwrite, and counts its bytes as unchanged if so. A copy-in the backoff
// skips is reported changed, which is what it was before any compare: it
// costs an elision, never a byte. The caller holds mu.
func (m *Mem) unchanged(a *allocation, dst, data []byte) bool {
	switch {
	case a.skip > 0:
		a.skip--
	case bytes.Equal(dst, data):
		a.misses = 0
		m.moves.UnchangedBytes += int64(len(data))
		return true
	default:
		a.misses = min(a.misses+1, backoffAfter+maxBackoff)
		if a.misses > backoffAfter {
			a.skip = 1<<(a.misses-backoffAfter) - 1
		}
	}
	return false
}

// Adopt is Write of a payload the allocation may keep: one covering the whole
// allocation becomes its backing and pl is left holding the displaced one;
// any other is copied. A payload compared equal to the bytes it would
// overwrite (unchanged) is neither, and the allocation keeps its generation.
// A byte-less allocation adopts nothing. The caller releases pl either way.
func (m *Mem) Adopt(p Ptr, off int, pl *Payload) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.within(p, "write to", off, len(pl.B))
	switch {
	case err != nil:
		return err
	case a.b == nil || off != 0 || len(pl.B) != len(a.b):
		m.copyIn(a, off, pl.B)
		return nil
	case m.unchanged(a, a.b, pl.B):
		return nil
	}
	a.b, pl.B = pl.B, a.b
	m.moves.AdoptedBytes += int64(len(a.b))
	m.bump(a)
	return nil
}

// Fill sets n bytes of the allocation at p starting at off to value (a
// memset), in place under the lock. n comes from the guest: a negative or
// oversized one is refused like an out-of-range Write, before anything is
// touched.
func (m *Mem) Fill(p Ptr, off, n int, value byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.within(p, "fill of", off, n)
	if err != nil {
		return err
	}
	m.bump(a)
	if a.b == nil {
		return nil
	}
	b := a.b[off : off+n]
	if value == 0 {
		clear(b)
		return nil
	}
	for i := range b {
		b[i] = value
	}
	return nil
}

// Read copies n bytes out of the allocation at p starting at off (a D2H
// copy). The returned slice is a private copy.
func (m *Mem) Read(p Ptr, off, n int) ([]byte, error) {
	return m.read(p, off, n, nil)
}

// ReadInto copies len(dst) bytes out of the allocation at p starting at off
// into dst: Read for a caller that already owns the destination (a response
// frame), so the bytes are copied once and nothing is allocated.
func (m *Mem) ReadInto(p Ptr, off int, dst []byte) error {
	_, err := m.read(p, off, len(dst), dst)
	return err
}

// CheckRead returns the error a Read of [off, off+n) at p would — an invalid
// pointer, a reservation, a range outside the allocation — and copies
// nothing. It is the range check of a caller that moves no bytes (a
// timing-only device's D2H) or sizes a destination before it reads (a served
// D2H's response frame), so every D2H is refused in the same words.
func (m *Mem) CheckRead(p Ptr, off, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.within(p, "read from", off, n)
	return err
}

// read checks [off, off+n) against the allocation and copies it into dst, or
// into a fresh slice when dst is nil — made only after the check, so a
// hostile n allocates nothing. A byte-less allocation reads as zeros.
func (m *Mem) read(p Ptr, off, n int, dst []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.within(p, "read from", off, n)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = make([]byte, n)
	} else if a.b == nil {
		clear(dst)
	}
	if a.b != nil {
		copy(dst, a.b[off:off+n])
	}
	return dst, nil
}

// bind returns the allocation's bytes (no copy) for kernel binding, refusing
// a byte-less allocation (ErrNoBytes). Internal: kernel execution happens
// under the host service's serialization.
func (m *Mem) bind(p Ptr) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.withBytes(p, "bind of")
	if err != nil {
		return nil, err
	}
	return a.b, nil
}

// BindBuffer decodes the allocation at p as a typed kernel buffer. The buffer
// is a private copy.
func (m *Mem) BindBuffer(p Ptr, t kpl.Type) (*kpl.Buffer, error) {
	raw, err := m.bind(p)
	if err != nil {
		return nil, err
	}
	return BufferFromBytes(t, raw), nil
}

// BindParam binds the allocation at p to the kernel buffer parameter decl for
// one launch. A ReadOnly parameter gets a typed view that aliases the
// allocation's bytes: nothing is copied, and the caller must neither write
// through it nor let device memory change while it is in use (the per-device
// executor owns the memory for the duration of a launch). A writable
// parameter gets a private copy, a pool slice viewed at its type, that Commit
// makes the allocation's backing once the kernel has succeeded (or
// ReleaseBuffer returns after a failure), so a failed launch leaves device
// memory untouched. Of that copy only the elements from covered on are filled
// from the allocation: the caller vouches that a launch which succeeds stores
// every one of the first covered elements before reading any (kir's
// Program.Covered), so what the pool slice held there never reaches device
// memory. Where a view is impossible (big-endian host, or bytes not aligned for
// the element type) either parameter gets a fully decoded copy.
func (m *Mem) BindParam(p Ptr, decl *kpl.BufDecl, covered int) (*kpl.Buffer, error) {
	raw, err := m.bind(p)
	if err != nil {
		return nil, err
	}
	if !decl.ReadOnly && hostLittleEndian {
		b := getBytes(len(raw))
		skip := min(max(covered, 0), len(raw)/decl.Elem.Size()) * decl.Elem.Size()
		copy(b[skip:], raw[skip:])
		if v := viewBuffer(decl.Elem, b); v != nil {
			if skip > 0 {
				m.mu.Lock()
				m.moves.UncopiedBytes += int64(skip)
				m.mu.Unlock()
			}
			return v, nil
		}
		putBytes(b)
	}
	return bindParam(decl, raw), nil
}

// BindView binds the allocation at p for a caller that only reads it: a typed
// view wherever BindParam would give a read-only parameter one, else a private
// copy. Sampling λ binds every parameter this way — the sampler clones the
// writable ones itself — under the same rule as any view: device memory must
// not change while it is in use. A byte-less allocation has nothing to
// sample, so it is refused (ErrNoBytes), as by every bind.
func (m *Mem) BindView(p Ptr, t kpl.Type) (*kpl.Buffer, error) {
	raw, err := m.bind(p)
	if err != nil {
		return nil, err
	}
	if v := viewBuffer(t, raw); v != nil {
		return v, nil
	}
	return BufferFromBytes(t, raw), nil
}

// CheckBind returns the error a bind of p would for its pointer — an invalid
// one, a reservation — without touching the allocation's bytes: pricing a
// launch that samples nothing validates its bindings with it. A byte-less
// allocation passes, since such a pricing reads none of its bytes.
func (m *Mem) CheckBind(p Ptr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.lookup(p, "bind of")
	return err
}

func bindParam(decl *kpl.BufDecl, raw []byte) *kpl.Buffer {
	if decl.ReadOnly {
		if v := viewBuffer(decl.Elem, raw); v != nil {
			return v
		}
	}
	return BufferFromBytes(decl.Elem, raw)
}

// WriteBuffer encodes buf back into the allocation at p. A byte-less
// allocation is refused (ErrNoBytes).
func (m *Mem) WriteBuffer(p Ptr, buf *kpl.Buffer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.withBytes(p, "write-back to")
	if err != nil {
		return err
	}
	return m.writeBufferLocked(a, buf)
}

func (m *Mem) writeBufferLocked(a *allocation, buf *kpl.Buffer) error {
	if need := buf.Bytes(); need > a.n {
		return fmt.Errorf("devmem: write of %d bytes outside allocation of %d bytes", need, a.n)
	}
	BufferToBytes(buf, a.b)
	m.moves.Copied++
	m.bump(a)
	return nil
}

// Commit is WriteBuffer of a writable copy from BindParam that the allocation
// takes over: when buf's storage can hold the whole allocation it becomes the
// backing (bytes no element covers carried over) and the displaced one goes
// to the pool. The caller must not touch buf again.
func (m *Mem) Commit(p Ptr, buf *kpl.Buffer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.withBytes(p, "write-back to")
	if err != nil {
		return err
	}
	b, s := a.b, elemBytes(buf)
	if !hostLittleEndian || len(s) > len(b) || cap(s) < len(b) || unsafe.SliceData(s) == unsafe.SliceData(b) {
		return m.writeBufferLocked(a, buf)
	}
	s = s[:len(b)]
	copy(s[buf.Bytes():], b[buf.Bytes():])
	a.b = s
	putBytes(b)
	m.moves.Swapped++
	m.bump(a)
	return nil
}

// ReleaseBuffer returns a writable copy from BindParam to the pool after a
// failed launch. The caller must not touch buf again.
func ReleaseBuffer(buf *kpl.Buffer) {
	if hostLittleEndian {
		putBytes(elemBytes(buf))
	}
}

// hostLittleEndian reports whether the host lays multi-byte values out in
// device byte order. Only then are a typed element slice and its device bytes
// the same memory image, which is what views and single-copy moves rely on.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// viewBuffer returns a typed buffer whose element slice aliases raw, or nil
// when the host is big-endian, raw is not aligned for the element type, or
// raw holds no whole element. Trailing bytes that do not fill an element are
// left out of the view but stay in its capacity, as does raw's spare room.
func viewBuffer(t kpl.Type, raw []byte) *kpl.Buffer {
	n, c := len(raw)/t.Size(), cap(raw)/t.Size()
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if !hostLittleEndian || n == 0 || uintptr(p)%uintptr(t.Size()) != 0 {
		return nil
	}
	buf := &kpl.Buffer{Elem: t}
	switch t {
	case kpl.F32:
		buf.F32s = unsafe.Slice((*float32)(p), c)[:n]
	case kpl.F64:
		buf.F64s = unsafe.Slice((*float64)(p), c)[:n]
	default:
		buf.I32s = unsafe.Slice((*int32)(p), c)[:n]
	}
	return buf
}

// elemBytes returns the buffer's element slice as bytes in host byte order,
// its capacity included.
func elemBytes(buf *kpl.Buffer) []byte {
	switch buf.Elem {
	case kpl.F32:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf.F32s))), 4*cap(buf.F32s))[:4*len(buf.F32s)]
	case kpl.F64:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf.F64s))), 8*cap(buf.F64s))[:8*len(buf.F64s)]
	default:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf.I32s))), 4*cap(buf.I32s))[:4*len(buf.I32s)]
	}
}

// BufferFromBytes decodes little-endian device bytes into a typed buffer (a
// private copy). Trailing bytes that do not fill an element are ignored.
func BufferFromBytes(t kpl.Type, raw []byte) *kpl.Buffer {
	buf := kpl.NewBuffer(t, len(raw)/t.Size())
	if hostLittleEndian {
		copy(elemBytes(buf), raw)
	} else {
		decodeElems(buf, raw)
	}
	return buf
}

// BufferToBytes encodes a typed buffer into dst, which must hold at least
// buf.Bytes() bytes.
func BufferToBytes(buf *kpl.Buffer, dst []byte) {
	if hostLittleEndian {
		src := elemBytes(buf)
		copy(dst[:len(src)], src)
	} else {
		encodeElems(buf, dst)
	}
}

// decodeElems fills buf from little-endian bytes one element at a time: the
// big-endian host's decode, and the oracle the view is tested against.
func decodeElems(buf *kpl.Buffer, raw []byte) {
	switch buf.Elem {
	case kpl.F32:
		for i := range buf.F32s {
			buf.F32s[i] = math.Float32frombits(le32(raw[4*i:]))
		}
	case kpl.F64:
		for i := range buf.F64s {
			buf.F64s[i] = math.Float64frombits(le64(raw[8*i:]))
		}
	default:
		for i := range buf.I32s {
			buf.I32s[i] = int32(le32(raw[4*i:]))
		}
	}
}

// encodeElems is the inverse of decodeElems.
func encodeElems(buf *kpl.Buffer, dst []byte) {
	switch buf.Elem {
	case kpl.F32:
		for i, v := range buf.F32s {
			put32(dst[4*i:], math.Float32bits(v))
		}
	case kpl.F64:
		for i, v := range buf.F64s {
			put64(dst[8*i:], math.Float64bits(v))
		}
	default:
		for i, v := range buf.I32s {
			put32(dst[4*i:], uint32(v))
		}
	}
}

// EncodeF32 packs float32 values into device bytes.
func EncodeF32(vs []float32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		put32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// EncodeF64 packs float64 values into device bytes.
func EncodeF64(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		put64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// EncodeI32 packs int32 values into device bytes.
func EncodeI32(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		put32(out[4*i:], uint32(v))
	}
	return out
}

// DecodeF32 unpacks device bytes as float32 values.
func DecodeF32(raw []byte) []float32 {
	n := len(raw) / 4
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(le32(raw[4*i:]))
	}
	return out
}

// DecodeF64 unpacks device bytes as float64 values.
func DecodeF64(raw []byte) []float64 {
	n := len(raw) / 8
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(le64(raw[8*i:]))
	}
	return out
}

// DecodeI32 unpacks device bytes as int32 values.
func DecodeI32(raw []byte) []int32 {
	n := len(raw) / 4
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(le32(raw[4*i:]))
	}
	return out
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}
