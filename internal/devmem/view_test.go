package devmem

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/kpl"
)

// sameBits reports whether two buffers hold the same element type, length and
// bit patterns (NaN payloads included), comparing through their bytes.
func sameBits(a, b *kpl.Buffer) bool {
	return a.Elem == b.Elem && a.Len() == b.Len() && bytes.Equal(elemBytes(a), elemBytes(b))
}

// aligned8 returns n bytes whose first byte sits on an 8-byte boundary.
func aligned8(n int) []byte {
	words := make([]uint64, n/8+1)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))[:n]
}

// TestViewMatchesDecodeProperty: over random device bytes, a view, the bulk
// private copy and the per-element decode agree bit for bit, for every element
// type, including lengths that leave trailing bytes, a misaligned sub-slice
// (which must not become a view) and ranges holding no whole element.
func TestViewMatchesDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, typ := range []kpl.Type{kpl.F32, kpl.F64, kpl.I32} {
		for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 64, 257, 1023} {
			raw := aligned8(n)
			rng.Read(raw)
			want := kpl.NewBuffer(typ, n/typ.Size())
			decodeElems(want, raw)

			if got := BufferFromBytes(typ, raw); !sameBits(got, want) {
				t.Errorf("%s n=%d: bulk copy differs from per-element decode", typ, n)
			}
			view := viewBuffer(typ, raw)
			switch {
			case want.Len() == 0:
				if view != nil {
					t.Errorf("%s n=%d: view over no whole element", typ, n)
				}
			case !hostLittleEndian:
				if view != nil {
					t.Errorf("%s n=%d: view on a big-endian host", typ, n)
				}
			case view == nil:
				t.Errorf("%s n=%d: aligned range was not viewed", typ, n)
			default:
				if !sameBits(view, want) {
					t.Errorf("%s n=%d: view differs from per-element decode", typ, n)
				}
				if unsafe.Pointer(unsafe.SliceData(elemBytes(view))) != unsafe.Pointer(unsafe.SliceData(raw)) {
					t.Errorf("%s n=%d: view does not alias the device bytes", typ, n)
				}
			}

			// The encoders agree too.
			enc, ref := make([]byte, want.Bytes()), make([]byte, want.Bytes())
			BufferToBytes(want, enc)
			encodeElems(want, ref)
			if !bytes.Equal(enc, ref) || !bytes.Equal(enc, raw[:len(enc)]) {
				t.Errorf("%s n=%d: bulk encode differs from per-element encode", typ, n)
			}

			if n < 1 {
				continue
			}
			// raw[1:] is off every element boundary: fallback only.
			odd := raw[1:]
			if viewBuffer(typ, odd) != nil {
				t.Errorf("%s n=%d: misaligned range was viewed", typ, n)
			}
			wantOdd := kpl.NewBuffer(typ, len(odd)/typ.Size())
			decodeElems(wantOdd, odd)
			ro := &kpl.BufDecl{Name: "in", Elem: typ, ReadOnly: true}
			if got := bindParam(ro, odd); !sameBits(got, wantOdd) {
				t.Errorf("%s n=%d: misaligned read-only bind differs from per-element decode", typ, n)
			}
		}
	}
}

// TestBindParamViewsOnlyReadOnly: a read-only parameter aliases the
// allocation, a writable one never does, and sub-ranges follow the same rule.
func TestBindParamViewsOnlyReadOnly(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("views need a little-endian host")
	}
	m := New(1 << 20)
	p, _ := m.Alloc(64)
	if err := m.Write(p, 0, EncodeF32([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})); err != nil {
		t.Fatal(err)
	}
	ro := &kpl.BufDecl{Name: "in", Elem: kpl.F32, ReadOnly: true}
	rw := &kpl.BufDecl{Name: "out", Elem: kpl.F32}

	view, err := m.BindParam(p, ro)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := m.BindParam(p, rw)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.BindParamRange(p, 16, 32, ro)
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 16 || priv.Len() != 16 || sub.Len() != 8 || sub.F32s[0] != 5 {
		t.Fatalf("bound lengths %d/%d/%d, sub[0]=%v", view.Len(), priv.Len(), sub.Len(), sub.F32s[0])
	}
	// An H2D write is visible through the views and not through the copy.
	if err := m.Write(p, 16, EncodeF32([]float32{-5})); err != nil {
		t.Fatal(err)
	}
	if view.F32s[4] != -5 || sub.F32s[0] != -5 {
		t.Error("read-only parameter does not alias the allocation")
	}
	if priv.F32s[4] != 5 {
		t.Error("writable parameter aliases the allocation")
	}
	// The private copy reaches device memory only through WriteBuffer.
	priv.F32s[0] = 42
	if view.F32s[0] != 1 {
		t.Error("write to a private copy reached device memory")
	}
	if err := m.WriteBuffer(p, priv); err != nil {
		t.Fatal(err)
	}
	if view.F32s[0] != 42 || view.F32s[4] != 5 {
		t.Error("WriteBuffer did not store the private copy")
	}

	if _, err := m.BindParam(Ptr(0xbad), ro); err == nil {
		t.Error("BindParam of invalid pointer accepted")
	}
	for _, r := range [][2]int{{-4, 8}, {0, 68}, {60, 8}, {8, -4}} {
		if _, err := m.BindParamRange(p, r[0], r[1], ro); err == nil {
			t.Errorf("BindParamRange [%d,+%d) accepted", r[0], r[1])
		}
	}
	if empty, err := m.BindParamRange(p, 8, 0, ro); err != nil || empty.Len() != 0 {
		t.Errorf("zero-length range: %v, %v", empty, err)
	}
}

// TestBindAllocs pins the launch path's allocation budget: a read-only bind
// costs the kpl.Buffer header only, whatever the allocation's size.
func TestBindAllocs(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("views need a little-endian host")
	}
	m := New(1 << 22)
	p, _ := m.Alloc(1 << 20)
	ro := &kpl.BufDecl{Name: "in", Elem: kpl.F32, ReadOnly: true}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.BindParam(p, ro); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("read-only bind: %v allocs, want 1", n)
	}
}

// TestCopyInPlace: Mem.Copy moves bytes between and within allocations with
// memmove semantics and rejects what Read followed by Write rejected.
func TestCopyInPlace(t *testing.T) {
	m := New(1 << 20)
	a, _ := m.Alloc(16)
	b, _ := m.Alloc(8)
	src := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if err := m.Write(a, 0, src); err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(b, 2, a, 4, 6); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Read(b, 0, 8); !bytes.Equal(got, []byte{0, 0, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("copy between allocations: %v", got)
	}
	// Overlapping ranges of one allocation, both directions.
	if err := m.Copy(a, 2, a, 0, 8); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Read(a, 0, 16); !bytes.Equal(got, []byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15}) {
		t.Errorf("overlapping forward copy: %v", got)
	}
	if err := m.Copy(a, 0, a, 2, 8); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Read(a, 0, 16); !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7, 6, 7, 10, 11, 12, 13, 14, 15}) {
		t.Errorf("overlapping backward copy: %v", got)
	}
	if err := m.Copy(b, 0, a, 0, 0); err != nil {
		t.Errorf("zero-length copy: %v", err)
	}
	before := m.Export()
	for _, c := range []struct {
		dst    Ptr
		dstOff int
		src    Ptr
		srcOff int
		n      int
	}{
		{b, 0, Ptr(0xbad), 0, 4}, {Ptr(0xbad), 0, a, 0, 4},
		{b, 0, a, 12, 8}, {b, 4, a, 0, 8}, {b, -1, a, 0, 4}, {b, 0, a, -1, 4}, {b, 0, a, 0, -1},
	} {
		if err := m.Copy(c.dst, c.dstOff, c.src, c.srcOff, c.n); err == nil {
			t.Errorf("Copy(%#x+%d ← %#x+%d, %d) accepted", uint64(c.dst), c.dstOff, uint64(c.src), c.srcOff, c.n)
		}
	}
	after := m.Export()
	for i := range before {
		if !bytes.Equal(before[i].Data, after[i].Data) {
			t.Errorf("rejected copy changed allocation %#x", uint64(before[i].Ptr))
		}
	}
}
