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

	view, err := m.BindParam(p, ro, 0)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := m.BindParam(p, rw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 16 || priv.Len() != 16 {
		t.Fatalf("bound lengths %d/%d", view.Len(), priv.Len())
	}
	// An H2D write is visible through the views and not through the copy.
	if err := m.Write(p, 16, EncodeF32([]float32{-5})); err != nil {
		t.Fatal(err)
	}
	if view.F32s[4] != -5 {
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

	if _, err := m.BindParam(Ptr(0xbad), ro, 0); err == nil {
		t.Error("BindParam of invalid pointer accepted")
	}
	if err := m.WriteBuffer(p, &kpl.Buffer{Elem: kpl.F32, F32s: make([]float32, 17)}); err == nil {
		t.Error("WriteBuffer of more than the allocation holds accepted")
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
		if _, err := m.BindParam(p, ro, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("read-only bind: %v allocs, want 1", n)
	}
}
