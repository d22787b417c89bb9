package devmem

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/kpl"
)

func TestAllocFreeLifecycle(t *testing.T) {
	m := New(1 << 20)
	p, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Size(p); err != nil || n != 100 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if m.Used() != 100 {
		t.Fatalf("Used = %d", m.Used())
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 0 {
		t.Fatalf("Used after free = %d", m.Used())
	}
	if err := m.Free(p); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestAllocErrors(t *testing.T) {
	m := New(128)
	if _, err := m.Alloc(0); err == nil {
		t.Error("zero alloc accepted")
	}
	if _, err := m.Alloc(-5); err == nil {
		t.Error("negative alloc accepted")
	}
	if _, err := m.Alloc(256); err == nil {
		t.Error("over-capacity alloc accepted")
	}
	p, err := m.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(1); err == nil {
		t.Error("alloc beyond capacity accepted")
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(128); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
}

// TestAllocSizeValidation pins the Alloc input-validation contract: requests
// outside [1, maxAlloc] fail with ErrBadAllocSize before touching allocator
// state, and near-MaxInt requests cannot wrap either the alignment round in
// alignSpan or the capacity check into a bogus success.
func TestAllocSizeValidation(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		wantBad bool // ErrBadAllocSize; otherwise plain out-of-memory
	}{
		{"zero", 0, true},
		{"negative", -5, true},
		{"min-int", math.MinInt, true},
		{"max-int", math.MaxInt, true},
		{"just-over-align-limit", maxAlloc + 1, true},
		{"align-limit", maxAlloc, false},
		{"huge-but-roundable", math.MaxInt - 256, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(1 << 20)
			_, err := m.Alloc(tc.n)
			if err == nil {
				t.Fatalf("Alloc(%d) accepted", tc.n)
			}
			if got := errors.Is(err, ErrBadAllocSize); got != tc.wantBad {
				t.Fatalf("Alloc(%d) = %v; ErrBadAllocSize = %v, want %v", tc.n, err, got, tc.wantBad)
			}
			if m.Used() != 0 {
				t.Fatalf("failed alloc leaked accounting: Used = %d", m.Used())
			}
			if m.HighWater() != 0x1000 {
				t.Fatalf("failed alloc moved bump pointer: %#x", uint64(m.HighWater()))
			}
			// The allocator must still work after rejecting the request.
			if _, err := m.Alloc(64); err != nil {
				t.Fatalf("alloc after rejection failed: %v", err)
			}
		})
	}
}

// TestAllocCapacityNoOverflow pins the overflow-safe capacity comparison: a
// near-MaxInt request against a nearly full device must report out-of-memory,
// not wrap the used+n sum negative and hand out capacity that does not exist.
func TestAllocCapacityNoOverflow(t *testing.T) {
	m := New(1 << 20)
	if _, err := m.Alloc(1 << 19); err != nil {
		t.Fatal(err)
	}
	_, err := m.Alloc(maxAlloc)
	if err == nil {
		t.Fatal("near-MaxInt alloc accepted on a half-full device")
	}
	if errors.Is(err, ErrBadAllocSize) {
		t.Fatalf("valid-sized request misclassified: %v", err)
	}
	if got := m.Used(); got != 1<<19 {
		t.Fatalf("Used = %d after failed alloc", got)
	}
}

func TestAlignSpanBoundary(t *testing.T) {
	cases := []struct {
		n    int
		want Ptr
	}{
		{1, 256},
		{255, 256},
		{256, 256},
		{257, 512},
		{maxAlloc, Ptr(uint64(maxAlloc+255) &^ 255)},
	}
	for _, tc := range cases {
		if got := alignSpan(tc.n); got != tc.want {
			t.Errorf("alignSpan(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestDistinctPointers(t *testing.T) {
	m := New(1 << 20)
	seen := map[Ptr]bool{}
	for i := 0; i < 100; i++ {
		p, err := m.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("pointer %#x reused", uint64(p))
		}
		seen[p] = true
	}
}

func TestReadWriteBounds(t *testing.T) {
	m := New(1 << 20)
	p, _ := m.Alloc(16)
	if err := m.Write(p, 0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(p, 14, []byte{9, 9, 9}); err == nil {
		t.Error("overflowing write accepted")
	}
	if err := m.Write(p, -1, []byte{1}); err == nil {
		t.Error("negative offset write accepted")
	}
	got, err := m.Read(p, 0, 4)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("Read = %v, %v", got, err)
	}
	if _, err := m.Read(p, 10, 10); err == nil {
		t.Error("overflowing read accepted")
	}
	if _, err := m.Read(Ptr(0xdead), 0, 1); err == nil {
		t.Error("read from invalid pointer accepted")
	}
	if err := m.Write(Ptr(0xdead), 0, []byte{1}); err == nil {
		t.Error("write to invalid pointer accepted")
	}
	if _, err := m.Size(Ptr(0xdead)); err == nil {
		t.Error("size of invalid pointer accepted")
	}
	// Read returns a private copy.
	got[0] = 77
	again, _ := m.Read(p, 0, 1)
	if again[0] != 1 {
		t.Error("Read aliases device memory")
	}
}

func TestEncodeDecodeRoundTrips(t *testing.T) {
	f32 := []float32{0, 1.5, -2.25, float32(math.Pi), math.MaxFloat32}
	if got := DecodeF32(EncodeF32(f32)); len(got) != len(f32) {
		t.Fatal("f32 length")
	} else {
		for i := range f32 {
			if got[i] != f32[i] {
				t.Errorf("f32[%d]: %v != %v", i, got[i], f32[i])
			}
		}
	}
	f64 := []float64{0, 1.5, -2.25, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i, v := range DecodeF64(EncodeF64(f64)) {
		if v != f64[i] {
			t.Errorf("f64[%d]: %v != %v", i, v, f64[i])
		}
	}
	i32 := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	for i, v := range DecodeI32(EncodeI32(i32)) {
		if v != i32[i] {
			t.Errorf("i32[%d]: %v != %v", i, v, i32[i])
		}
	}
}

// Property: Buffer↔bytes round-trips exactly for all three element types.
func TestBufferBytesRoundTripProperty(t *testing.T) {
	f := func(vals []float64, kind uint8) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		typ := kpl.Type(kind % 3)
		buf := kpl.NewBuffer(typ, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) {
				v = 0
			}
			buf.Set(i, kpl.F64Val(v))
		}
		raw := make([]byte, buf.Bytes())
		BufferToBytes(buf, raw)
		back := BufferFromBytes(typ, raw)
		if back.Len() != buf.Len() {
			return false
		}
		for i := 0; i < buf.Len(); i++ {
			a, b := buf.At(i), back.At(i)
			if a.T == kpl.I32 {
				if a.I != b.I {
					return false
				}
			} else if a.F != b.F && !(math.IsNaN(a.F) && math.IsNaN(b.F)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBindBufferAndWriteBack(t *testing.T) {
	m := New(1 << 20)
	p, _ := m.Alloc(8 * 4)
	if err := m.Write(p, 0, EncodeF32([]float32{1, 2, 3, 4, 5, 6, 7, 8})); err != nil {
		t.Fatal(err)
	}
	buf, err := m.BindBuffer(p, kpl.F32)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 || buf.F32s[3] != 4 {
		t.Fatalf("bound buffer wrong: %+v", buf.F32s)
	}
	buf.F32s[0] = 42
	if err := m.WriteBuffer(p, buf); err != nil {
		t.Fatal(err)
	}
	raw, _ := m.Read(p, 0, 4)
	if DecodeF32(raw)[0] != 42 {
		t.Fatal("WriteBuffer did not persist")
	}
	if _, err := m.BindBuffer(Ptr(0xbad), kpl.F32); err == nil {
		t.Error("BindBuffer of invalid pointer accepted")
	}
	if err := m.WriteBuffer(Ptr(0xbad), buf); err == nil {
		t.Error("WriteBuffer to invalid pointer accepted")
	}
	big := kpl.NewBuffer(kpl.F64, 100)
	if err := m.WriteBuffer(p, big); err == nil {
		t.Error("oversized WriteBuffer accepted")
	}
}

func TestBufferFromBytesIgnoresTrailing(t *testing.T) {
	raw := make([]byte, 10) // 2 f32 elements + 2 stray bytes
	buf := BufferFromBytes(kpl.F32, raw)
	if buf.Len() != 2 {
		t.Fatalf("len = %d, want 2", buf.Len())
	}
}

// TestChurnKeepsAddressSpaceBounded is the address-space-leak regression: an
// alloc/free loop must recycle address space instead of bumping the high
// water forever (before the free list, next only grew while Used() stayed
// flat, so a long-running service eventually exhausted the address space).
func TestChurnKeepsAddressSpaceBounded(t *testing.T) {
	m := New(1 << 30)
	baseline := m.HighWater()
	sizes := []int{100, 4096, 257, 1 << 16, 31}
	for i := 0; i < 10000; i++ {
		p, err := m.Alloc(sizes[i%len(sizes)])
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if err := m.Free(p); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
	if m.Used() != 0 {
		t.Fatalf("used = %d after churn", m.Used())
	}
	// Everything was freed, so the bump pointer must have fully retracted.
	if hw := m.HighWater(); hw != baseline {
		t.Fatalf("high water %#x after churn, want baseline %#x", uint64(hw), uint64(baseline))
	}
}

// TestChurnWithLiveSetBounded holds a rotating live set while churning:
// the high water must stay bounded by the peak working set, not grow with
// the allocation count.
func TestChurnWithLiveSetBounded(t *testing.T) {
	m := New(1 << 30)
	const live = 8
	var ptrs [live]Ptr
	for i := 0; i < 5000; i++ {
		slot := i % live
		if ptrs[slot] != 0 {
			if err := m.Free(ptrs[slot]); err != nil {
				t.Fatal(err)
			}
		}
		p, err := m.Alloc(1024 + slot*512)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[slot] = p
	}
	// Peak working set ≈ live * max aligned size; allow generous slack for
	// first-fit fragmentation but far below 5000 distinct bumps.
	bound := Ptr(0x1000 + 4*live*8192)
	if hw := m.HighWater(); hw > bound {
		t.Fatalf("high water %#x exceeds churn bound %#x", uint64(hw), uint64(bound))
	}
}

// TestFreeListMergesAdjacent frees neighbors out of order and checks a
// later allocation spanning their combined extent reuses the merged region.
func TestFreeListMergesAdjacent(t *testing.T) {
	m := New(1 << 20)
	a, _ := m.Alloc(256)
	b, _ := m.Alloc(256)
	c, _ := m.Alloc(256)
	d, _ := m.Alloc(256) // pins the bump pointer past c
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(c); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(b); err != nil {
		t.Fatal(err)
	}
	// a..c merged into one 768-byte region starting at a.
	big, err := m.Alloc(700)
	if err != nil {
		t.Fatal(err)
	}
	if big != a {
		t.Fatalf("merged region not reused: got %#x, want %#x", uint64(big), uint64(a))
	}
	if err := m.Free(big); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(d); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 0 {
		t.Fatalf("used = %d", m.Used())
	}
}

// TestHeadroomAccounting checks the placement-facing accessors.
func TestHeadroomAccounting(t *testing.T) {
	m := New(4096)
	if m.Capacity() != 4096 || m.Headroom() != 4096 {
		t.Fatalf("fresh mem: capacity %d headroom %d", m.Capacity(), m.Headroom())
	}
	p, err := m.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Headroom() != 4096-1000 {
		t.Fatalf("headroom %d after alloc", m.Headroom())
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if m.Headroom() != 4096 {
		t.Fatalf("headroom %d after free", m.Headroom())
	}
}

// TestFillBounds: Fill writes in place and refuses, before touching or
// allocating anything, every range a guest can make up — a negative count
// (which make([]byte, n) would panic on) and one far beyond the allocation.
func TestFillBounds(t *testing.T) {
	m := New(1 << 20)
	p, _ := m.Alloc(16)
	if err := m.Write(p, 0, bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(p, 4, 8, 0xAB); err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(p, 14, 2, 0); err != nil {
		t.Fatal(err)
	}
	want := append(append(bytes.Repeat([]byte{7}, 4), bytes.Repeat([]byte{0xAB}, 8)...), 7, 7, 0, 0)
	if got, _ := m.Read(p, 0, 16); !bytes.Equal(got, want) {
		t.Fatalf("after fills: % x, want % x", got, want)
	}
	if err := m.Fill(p, 16, 0, 1); err != nil {
		t.Errorf("empty fill at the end refused: %v", err)
	}
	for _, bad := range []struct{ off, n int }{
		{0, -1}, {-1, 1}, {0, 17}, {9, 8}, {17, 0}, {0, 1 << 33}, {1, math.MaxInt},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.Fill(p, bad.off, bad.n, 1)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("Fill(off %d, n %d) on 16 bytes accepted", bad.off, bad.n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Fill(off %d, n %d) allocated %d bytes before refusing", bad.off, bad.n, grew)
		}
	}
	if err := m.Fill(Ptr(0xdead), 0, 1, 1); err == nil {
		t.Error("fill of invalid pointer accepted")
	}
	if got, _ := m.Read(p, 0, 16); !bytes.Equal(got, want) {
		t.Fatalf("refused fills changed memory: % x", got)
	}
}

// TestRangeChecksNeverWrap: every entry point that takes a guest offset and a
// length refuses a pair whose sum wraps (off+n < 0 slips past off+n > size)
// as it refuses any other out-of-range pair — with an error, not by slicing
// out of range — and leaves the bytes alone. A reservation has no bytes, so it
// refuses the same entry points at every offset, in range or not, and its
// accounting stays as Reserve left it.
func TestRangeChecksNeverWrap(t *testing.T) {
	m := New(1 << 20)
	p, _ := m.Alloc(16)
	q, _ := m.Alloc(16)
	r, _ := m.Reserve(16)
	used, headroom, high := m.Used(), m.Headroom(), m.HighWater()
	buf := kpl.NewBuffer(kpl.I32, 1)
	// refused makes every byte access of four bytes at off of target.
	refused := func(target Ptr, off int) map[string]error {
		_, read := m.Read(target, off, 4)
		return map[string]error{
			"Write":    m.Write(target, off, []byte{1, 2, 3, 4}),
			"Fill":     m.Fill(target, off, 4, 1),
			"Read":     read,
			"ReadInto": m.ReadInto(target, off, make([]byte, 4)),
		}
	}
	for _, off := range []int{math.MaxInt, math.MaxInt - 3, math.MinInt, -1, 16, 13} {
		for name, err := range refused(p, off) {
			if err == nil {
				t.Errorf("%s at offset %d of 16 bytes accepted", name, off)
			}
		}
	}
	for _, off := range []int{0, 12, 13, -1, math.MaxInt} {
		for name, err := range refused(r, off) {
			if err == nil {
				t.Errorf("%s at offset %d of a reservation accepted", name, off)
			}
		}
	}
	_, bindParam := m.BindParam(r, &kpl.BufDecl{Name: "v", Elem: kpl.I32, ReadOnly: true}, 0)
	_, bindBuffer := m.BindBuffer(r, kpl.I32)
	if bindParam == nil || bindBuffer == nil || m.WriteBuffer(r, buf) == nil {
		t.Errorf("kernel binding of a reservation accepted: BindParam %v, BindBuffer %v", bindParam, bindBuffer)
	}
	for _, ptr := range []Ptr{p, q} {
		if got, _ := m.Read(ptr, 0, 16); !bytes.Equal(got, make([]byte, 16)) {
			t.Fatalf("refused operations changed memory: % x", got)
		}
	}
	if n, err := m.Size(r); n != 16 || err != nil {
		t.Errorf("Size of the reservation = %d, %v", n, err)
	}
	if m.Used() != used || m.Headroom() != headroom || m.HighWater() != high {
		t.Errorf("refused operations changed the accounting: used %d→%d, headroom %d→%d, high water %#x→%#x",
			used, m.Used(), headroom, m.Headroom(), uint64(high), uint64(m.HighWater()))
	}
	if len(m.Export()) != 2 {
		t.Errorf("Export lists %d entries, want the two allocations", len(m.Export()))
	}
	if err := m.Free(r); err != nil || m.Used() != 32 {
		t.Errorf("Free of the reservation: %v, used %d", err, m.Used())
	}
}

// TestReserveIsAllocWithoutBytes replays random alloc/free sequences on three
// arenas, the second with Reserve in Alloc's place at random positions and the
// third from NewUnbacked: every pointer, error text, generation, Used,
// Headroom, HighWater, Size and the free list agree step by step, for
// requests that fit, that exceed the headroom and that are malformed.
func TestReserveIsAllocWithoutBytes(t *testing.T) {
	sizes := []int{1, 100, 256, 257, 4096, 1 << 16, 0, -3, math.MaxInt, 1 << 21}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(1<<20), New(1<<20), NewUnbacked(1<<20)
		var live []Ptr
		for step := 0; step < 400; step++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(live))
				errA, errB, errC := a.Free(live[i]), b.Free(live[i]), c.Free(live[i])
				if errA != nil || errB != nil || errC != nil {
					t.Fatalf("seed %d step %d: Free: %v / %v / %v", seed, step, errA, errB, errC)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				n := sizes[rng.Intn(len(sizes))]
				pa, errA := a.Alloc(n)
				request := b.Alloc
				if rng.Intn(2) == 0 {
					request = b.Reserve
				}
				pb, errB := request(n)
				pc, errC := c.Alloc(n)
				for _, r := range []struct {
					p   Ptr
					err error
				}{{pb, errB}, {pc, errC}} {
					if pa != r.p || (errA == nil) != (r.err == nil) || (errA != nil && errA.Error() != r.err.Error()) ||
						errors.Is(errA, ErrBadAllocSize) != errors.Is(r.err, ErrBadAllocSize) {
						t.Fatalf("seed %d step %d: request of %d: %#x, %v / %#x, %v", seed, step, n, uint64(pa), errA, uint64(r.p), r.err)
					}
				}
				if errA == nil {
					live = append(live, pa)
					if sa, _ := a.Size(pa); sa != n {
						t.Fatalf("seed %d step %d: Size %d, want %d", seed, step, sa, n)
					}
					for _, m := range []*Mem{b, c} {
						if sm, err := m.Size(pa); sm != n || err != nil {
							t.Fatalf("seed %d step %d: Size %d, %v, want %d", seed, step, sm, err, n)
						}
					}
					if a.Gen(pa) != b.Gen(pa) || a.Gen(pa) != c.Gen(pa) {
						t.Fatalf("seed %d step %d: generations %d / %d / %d", seed, step, a.Gen(pa), b.Gen(pa), c.Gen(pa))
					}
				}
			}
			for _, m := range []*Mem{b, c} {
				if a.Used() != m.Used() || a.Headroom() != m.Headroom() || a.HighWater() != m.HighWater() ||
					!slices.Equal(a.free, m.free) {
					t.Fatalf("seed %d step %d: arenas diverged: used %d/%d, high water %#x/%#x, free %v/%v",
						seed, step, a.Used(), m.Used(), uint64(a.HighWater()), uint64(m.HighWater()), a.free, m.free)
				}
			}
		}
	}
}
