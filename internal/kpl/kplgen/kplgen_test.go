package kplgen

import (
	"testing"

	"repro/internal/kernels"
)

// TestEncodeMirrorsDecode: Encode writes the bytes Decode reads, in its
// order — decoding an encoded suite kernel consumes the input exactly and
// gives back its declarations, so no byte meant as one field (a constant's
// value, say) is read as another (the escape into the edge table).
func TestEncodeMirrorsDecode(t *testing.T) {
	for _, b := range kernels.All() {
		data := Encode(b.Kernel, b.MakeWorkload(1).Threads())
		c := &cursor{data: append(data[:len(data):len(data)], 0xAA, 0xAA)} // a tail an over-read would consume
		k, _, ok := decode(c)
		if !ok {
			t.Fatalf("%s: does not decode", b.Name)
		}
		for i, got := range k.Bufs {
			if want := b.Kernel.Bufs[i]; got.Elem != want.Elem || got.ReadOnly != (want.ReadOnly && i > 0) {
				t.Errorf("%s: buffer %d decodes as %v (read-only %v), encoded from %v (%v)", b.Name, i, got.Elem, got.ReadOnly, want.Elem, want.ReadOnly)
			}
		}
		for i, got := range k.Params {
			if want := b.Kernel.Params[i]; got.T != want.T {
				t.Errorf("%s: parameter %d decodes as %v, encoded from %v", b.Name, i, got.T, want.T)
			}
		}
		if c.i != len(data) {
			t.Errorf("%s: decoding consumed %d of %d bytes", b.Name, c.i, len(data))
		}
	}
}
