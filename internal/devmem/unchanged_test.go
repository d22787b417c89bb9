package devmem

import (
	"bytes"
	"testing"
	"unsafe"
)

// patterned returns n bytes that are not all alike.
func patterned(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// payloadOf returns a payload holding a copy of data.
func payloadOf(data []byte) *Payload {
	pl := NewPayload(len(data))
	copy(pl.B, data)
	return pl
}

// TestEqualCopyInKeepsGeneration: a Write or Adopt whose bytes equal the
// range they would overwrite — the whole allocation from offset 0, or a part
// of it at an offset — copies nothing, swaps nothing, keeps the generation and
// counts its bytes unchanged; one that differs only in its last byte takes a
// fresh generation and lands.
func TestEqualCopyInKeepsGeneration(t *testing.T) {
	const size = 1024
	content := patterned(size, 3)
	setup := func(t *testing.T) (*Mem, Ptr, uint64) {
		m := New(1 << 20)
		p, err := m.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(p, 0, content); err != nil {
			t.Fatal(err)
		}
		return m, p, m.Gen(p)
	}
	holds := func(t *testing.T, m *Mem, p Ptr, want []byte) {
		t.Helper()
		got, err := m.Read(p, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the allocation does not hold the bytes last written")
		}
	}

	equal := []struct {
		name string
		call func(t *testing.T, m *Mem, p Ptr) error
	}{
		{"Write at offset 0", func(_ *testing.T, m *Mem, p Ptr) error { return m.Write(p, 0, content) }},
		{"Write of a part at an offset", func(_ *testing.T, m *Mem, p Ptr) error { return m.Write(p, 100, content[100:300]) }},
		{"Adopt of the whole allocation", func(t *testing.T, m *Mem, p Ptr) error {
			pl := payloadOf(content)
			defer pl.Release()
			before := unsafe.SliceData(pl.B)
			if err := m.Adopt(p, 0, pl); err != nil {
				return err
			}
			if unsafe.SliceData(pl.B) != before {
				t.Error("an equal payload was swapped into the allocation")
			}
			return nil
		}},
		{"Adopt of a part at an offset", func(_ *testing.T, m *Mem, p Ptr) error {
			pl := payloadOf(content[512:])
			defer pl.Release()
			return m.Adopt(p, 512, pl)
		}},
	}
	for _, c := range equal {
		t.Run(c.name, func(t *testing.T) {
			m, p, gen := setup(t)
			moved := m.Moves()
			if err := c.call(t, m, p); err != nil {
				t.Fatal(err)
			}
			if g := m.Gen(p); g != gen {
				t.Errorf("an equal copy-in moved the generation from %d to %d", gen, g)
			}
			mv := m.Moves()
			if mv.CopiedBytes != moved.CopiedBytes || mv.AdoptedBytes != moved.AdoptedBytes || mv.UnchangedBytes == moved.UnchangedBytes {
				t.Errorf("an equal copy-in counted %+v after %+v, want only unchanged bytes", mv, moved)
			}
			holds(t, m, p, content)
		})
	}

	lastDiffers := func(data []byte) []byte {
		d := bytes.Clone(data)
		d[len(d)-1] ^= 0x80
		return d
	}
	differ := []struct {
		name string
		want []byte
		call func(m *Mem, p Ptr, want []byte) error
	}{
		{"Write at offset 0", lastDiffers(content), func(m *Mem, p Ptr, want []byte) error { return m.Write(p, 0, want) }},
		{"Write of a part at an offset", append(bytes.Clone(content[:300]), append(lastDiffers(content[300:600]), content[600:]...)...),
			func(m *Mem, p Ptr, want []byte) error { return m.Write(p, 300, want[300:600]) }},
		{"Adopt of the whole allocation", lastDiffers(content), func(m *Mem, p Ptr, want []byte) error {
			pl := payloadOf(want)
			defer pl.Release()
			return m.Adopt(p, 0, pl)
		}},
		{"Adopt of a part at an offset", lastDiffers(content), func(m *Mem, p Ptr, want []byte) error {
			pl := payloadOf(want[512:])
			defer pl.Release()
			return m.Adopt(p, 512, pl)
		}},
	}
	for _, c := range differ {
		t.Run("last byte differs/"+c.name, func(t *testing.T) {
			m, p, gen := setup(t)
			moved := m.Moves()
			if err := c.call(m, p, c.want); err != nil {
				t.Fatal(err)
			}
			if g := m.Gen(p); g <= gen {
				t.Errorf("a copy-in that changes a byte left generation %d (was %d)", g, gen)
			}
			if mv := m.Moves(); mv.UnchangedBytes != moved.UnchangedBytes {
				t.Errorf("a copy-in that changes a byte counted %d bytes unchanged", mv.UnchangedBytes-moved.UnchangedBytes)
			}
			holds(t, m, p, c.want)
		})
	}
}

// TestCopyInCompareBacksOff: an allocation whose copy-ins keep bringing new
// bytes is compared on every copy-in for the first backoffAfter of them — so
// writing a byte and restoring it still leaves the next equal copy-in its
// generation — and then on ever fewer, down to one in 1<<maxBackoff; the
// first equal copy-in that is compared again keeps the generation and
// resets the backoff, so the next new bytes are compared again.
func TestCopyInCompareBacksOff(t *testing.T) {
	const size = 256
	a, b := patterned(size, 1), patterned(size, 2)
	m := New(1 << 20)
	p, err := m.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	// compared reports whether the next copy-in of p will be compared.
	compared := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.reserved[p].skip == 0
	}
	for i, data := range [][]byte{a, b, a} { // three misses: zeros → a → b → a
		if !compared() {
			t.Fatalf("copy-in %d skipped the compare within the first %d misses", i, backoffAfter)
		}
		if err := m.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	gen := m.Gen(p)
	if err := m.Write(p, 0, a); err != nil {
		t.Fatal(err)
	}
	if m.Gen(p) != gen {
		t.Fatal("an equal copy-in after a write and its restore took a fresh generation")
	}

	const streamed = 64 * 20
	compares := 0
	for i := 0; i < streamed; i++ {
		if compared() {
			compares++
		}
		if err := m.Write(p, 0, [][]byte{b, a}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	if lo, hi := streamed>>maxBackoff, streamed>>maxBackoff+backoffAfter+maxBackoff; compares < lo || compares > hi {
		t.Errorf("%d copy-ins of new bytes ran %d compares, want %d to %d", streamed, compares, lo, hi)
	}

	// Now re-send the held bytes: they keep the generation within 1<<maxBackoff
	// copy-ins, and from then on every time.
	held := [][]byte{b, a}[(streamed-1)%2]
	fresh := 0
	for gen = m.Gen(p); ; gen = m.Gen(p) {
		if err := m.Write(p, 0, held); err != nil {
			t.Fatal(err)
		}
		if m.Gen(p) == gen {
			break
		}
		if fresh++; fresh >= 1<<maxBackoff {
			t.Fatalf("%d equal copy-ins in a row took a fresh generation", fresh)
		}
	}
	for i := 0; i < 3; i++ {
		if err := m.Write(p, 0, held); err != nil {
			t.Fatal(err)
		}
		if m.Gen(p) != gen {
			t.Fatal("an equal copy-in took a fresh generation after the backoff was reset")
		}
	}
	for i, data := range [][]byte{a, b, a} {
		if !compared() {
			t.Fatalf("copy-in %d after the reset skipped the compare", i)
		}
		if err := m.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Read(p, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("the allocation does not hold the bytes last written")
	}
}

// BenchmarkAdopt prices a whole-allocation Adopt of 256 KiB by where its
// payload first differs from the allocation's bytes: nowhere (the compare
// reads both to the end and nothing moves), at the first byte (the compare
// stops at once and the payload is swapped in), or at the last byte (a full
// compare, then the swap). A differing payload swaps the two contents back
// and forth, so the allocation streams new bytes: "last-byte-differs" is the
// steady state the backoff reaches, one compare in 1<<maxBackoff, and
// "last-byte-differs-no-backoff" clears the backoff before every Adopt to
// price the compare itself.
func BenchmarkAdopt(b *testing.B) {
	const size = 256 << 10
	content := patterned(size, 5)
	for _, c := range []struct {
		name  string
		at    int  // the byte the payload differs in, or -1
		reset bool // clear the backoff before every Adopt
	}{
		{"equal", -1, false},
		{"first-byte-differs", 0, false},
		{"last-byte-differs", size - 1, false},
		{"last-byte-differs-no-backoff", size - 1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := New(1 << 20)
			p, err := m.Alloc(size)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Write(p, 0, content); err != nil {
				b.Fatal(err)
			}
			pl := payloadOf(content)
			defer pl.Release()
			if c.at >= 0 {
				pl.B[c.at] ^= 0xFF
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.reset {
					m.mu.Lock()
					e := m.reserved[p]
					e.misses, e.skip = 0, 0
					m.reserved[p] = e
					m.mu.Unlock()
				}
				if err := m.Adopt(p, 0, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
