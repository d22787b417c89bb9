package devmem

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// replay re-creates exported allocations at their original addresses, as a
// checkpoint restore does (core's restoreVP): AllocAt, then Write.
func replay(m *Mem, entries []Entry) error {
	for _, e := range entries {
		if err := m.AllocAt(e.Ptr, len(e.Data)); err != nil {
			return err
		}
		if err := m.Write(e.Ptr, 0, e.Data); err != nil {
			return err
		}
	}
	return nil
}

// TestExportReplayRoundTrip is the migration-restore property test: after an
// arbitrary churn of allocations, frees, and writes, exporting the arena and
// replaying it into a fresh one must reproduce identical accounting
// (Used/Capacity/Headroom) and byte-identical buffer contents at the same
// addresses. HighWater may legitimately differ — the fresh arena never saw
// the freed peaks — but must cover every replayed span.
func TestExportReplayRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := New(1 << 22)
	live := map[Ptr][]byte{}
	var ptrs []Ptr

	for step := 0; step < 500; step++ {
		switch {
		case len(ptrs) == 0 || rng.Intn(3) != 0:
			n := 1 + rng.Intn(4096)
			p, err := src.Alloc(n)
			if err != nil {
				t.Fatalf("step %d: alloc %d: %v", step, n, err)
			}
			data := make([]byte, n)
			rng.Read(data)
			if err := src.Write(p, 0, data); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			live[p] = data
			ptrs = append(ptrs, p)
		case rng.Intn(2) == 0:
			i := rng.Intn(len(ptrs))
			p := ptrs[i]
			if err := src.Free(p); err != nil {
				t.Fatalf("step %d: free %#x: %v", step, p, err)
			}
			delete(live, p)
			ptrs = append(ptrs[:i], ptrs[i+1:]...)
		default:
			i := rng.Intn(len(ptrs))
			p := ptrs[i]
			off := rng.Intn(len(live[p]))
			patch := make([]byte, 1+rng.Intn(len(live[p])-off))
			rng.Read(patch)
			if err := src.Write(p, off, patch); err != nil {
				t.Fatalf("step %d: patch: %v", step, err)
			}
			copy(live[p][off:], patch)
		}
	}

	entries := src.Export()
	if len(entries) != len(live) {
		t.Fatalf("export has %d entries, %d live allocations", len(entries), len(live))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Ptr >= entries[i].Ptr {
			t.Fatalf("export not sorted: entry %d (%#x) >= entry %d (%#x)",
				i-1, entries[i-1].Ptr, i, entries[i].Ptr)
		}
	}

	dst := New(src.Capacity())
	if err := replay(dst, entries); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if dst.Used() != src.Used() {
		t.Fatalf("Used: replayed %d, source %d", dst.Used(), src.Used())
	}
	if dst.Capacity() != src.Capacity() {
		t.Fatalf("Capacity: replayed %d, source %d", dst.Capacity(), src.Capacity())
	}
	if dst.Headroom() != src.Headroom() {
		t.Fatalf("Headroom: replayed %d, source %d", dst.Headroom(), src.Headroom())
	}
	if dst.HighWater() > src.HighWater() {
		t.Fatalf("HighWater: replayed %#x above source %#x", dst.HighWater(), src.HighWater())
	}
	for p, want := range live {
		got, err := dst.Read(p, 0, len(want))
		if err != nil {
			t.Fatalf("read %#x after replay: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("contents at %#x differ after replay", p)
		}
	}

	// The replayed arena must keep allocating: fresh requests land in the
	// holes or above the frontier, never on a replayed span.
	for i := 0; i < 64; i++ {
		p, err := dst.Alloc(128)
		if err != nil {
			t.Fatalf("post-replay alloc %d: %v", i, err)
		}
		if _, clash := live[p]; clash {
			t.Fatalf("post-replay alloc landed on replayed span %#x", p)
		}
	}

	// Export must hand out private copies: mutating them must not reach the
	// arena.
	if len(entries) > 0 && len(entries[0].Data) > 0 {
		orig := entries[0].Data[0]
		entries[0].Data[0] ^= 0xFF
		got, err := src.Read(entries[0].Ptr, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != orig {
			t.Fatal("mutating an exported entry reached the source arena")
		}
	}
}

// TestAllocAtErrors pins AllocAt's failure modes: bad sizes, overlap with a
// live span, pointers below the arena base, end-of-range overflow, and
// capacity exhaustion — including the overflow-checked paths PR 9 hardened.
func TestAllocAtErrors(t *testing.T) {
	m := New(1 << 20)
	p, err := m.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.AllocAt(p, 64); err == nil || !errors.Is(err, ErrSpanBusy) {
		t.Fatalf("AllocAt on a live span: err = %v, want ErrSpanBusy", err)
	}
	if err := m.AllocAt(p+64, 64); err == nil || !errors.Is(err, ErrSpanBusy) {
		t.Fatalf("AllocAt inside a live span: err = %v, want ErrSpanBusy", err)
	}
	for _, n := range []int{0, -1, maxAlloc + 1} {
		if err := m.AllocAt(0x200000, n); err == nil {
			t.Fatalf("AllocAt size %d: no error", n)
		}
	}
	if err := m.AllocAt(0, 64); err == nil {
		t.Fatal("AllocAt below the arena base: no error")
	}
	if err := m.AllocAt(Ptr(math.MaxUint64-16), 64); err == nil {
		t.Fatal("AllocAt with wrapping end: no error")
	}
	if err := m.AllocAt(0x100000, int(m.Capacity())); err == nil {
		t.Fatal("AllocAt beyond capacity: no error")
	}

	// A freed span becomes reservable again, at the exact same address.
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocAt(p, 1024); err != nil {
		t.Fatalf("AllocAt on a freed span: %v", err)
	}
	// And a span strictly inside a free hole splits it: both remainders stay
	// allocatable.
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocAt(p+256, 128); err != nil {
		t.Fatalf("AllocAt inside a free hole: %v", err)
	}
	if err := m.AllocAt(p, 128); err != nil {
		t.Fatalf("AllocAt on the hole's head remainder: %v", err)
	}
}

// TestReplayRejectsOverlap: re-creating entries that collide fails on the
// second, whose span starts inside the first's, with ErrSpanBusy.
func TestReplayRejectsOverlap(t *testing.T) {
	m := New(1 << 16)
	entries := []Entry{
		{Ptr: 0x1000, Data: make([]byte, 512)},
		{Ptr: 0x1100, Data: make([]byte, 512)}, // inside the first span
	}
	if err := replay(m, entries); !errors.Is(err, ErrSpanBusy) {
		t.Fatalf("replay of overlapping entries: err = %v, want ErrSpanBusy", err)
	}
}
