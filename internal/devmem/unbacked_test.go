package devmem

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/kpl"
)

// TestUnbackedAllocationKeepsNoBytes runs the same calls on a backed memory
// and on one from NewUnbacked: every pointer, size, generation and accounting
// figure agrees, every range the backed memory refuses the unbacked one
// refuses with the same error, and what the backed memory stores the unbacked
// one drops — it reads zeros and counts no moved byte. A kernel bind or
// write-back of a byte-less allocation is refused with ErrNoBytes and changes
// nothing, while CheckBind passes it. A reservation on the unbacked memory
// still refuses every byte access.
func TestUnbackedAllocationKeepsNoBytes(t *testing.T) {
	backed, unbacked := New(1<<20), NewUnbacked(1<<20)
	pattern := bytes.Repeat([]byte{0xA5, 0x5A}, 32)
	var ptrs []Ptr
	for _, m := range []*Mem{backed, unbacked} {
		var got []Ptr
		for _, n := range []int{64, 300, 64} {
			p, err := m.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, p)
		}
		if err := m.Free(got[1]); err != nil {
			t.Fatal(err)
		}
		if err := m.AllocAt(got[1], 200); err != nil {
			t.Fatal(err)
		}
		if ptrs == nil {
			ptrs = got
		} else if fmt.Sprint(got) != fmt.Sprint(ptrs) {
			t.Fatalf("unbacked memory placed %#x, backed %#x", got, ptrs)
		}
	}
	p := ptrs[0]
	same := func(what string) {
		t.Helper()
		if backed.Used() != unbacked.Used() || backed.Headroom() != unbacked.Headroom() ||
			backed.HighWater() != unbacked.HighWater() {
			t.Fatalf("%s: accounting diverged: used %d/%d, high water %#x/%#x", what,
				backed.Used(), unbacked.Used(), uint64(backed.HighWater()), uint64(unbacked.HighWater()))
		}
		for _, q := range ptrs {
			sb, errB := backed.Size(q)
			su, errU := unbacked.Size(q)
			if sb != su || errB != nil || errU != nil {
				t.Fatalf("%s: Size(%#x) = %d, %v / %d, %v", what, uint64(q), sb, errB, su, errU)
			}
		}
	}
	same("after placement")

	// Every call both memories take; the backed one's bytes differ from
	// zeros after each.
	writes := map[string]func(m *Mem) error{
		"Write": func(m *Mem) error { return m.Write(p, 0, pattern) },
		"Adopt": func(m *Mem) error {
			pl := NewPayload(len(pattern))
			defer pl.Release()
			copy(pl.B, pattern)
			if err := m.Adopt(p, 0, pl); err != nil {
				return err
			}
			if m == unbacked && !bytes.Equal(pl.B, pattern) {
				return fmt.Errorf("the unbacked memory displaced the payload's bytes")
			}
			return nil
		},
		"Fill": func(m *Mem) error { return m.Fill(p, 8, 16, 0xEE) },
	}
	for name, write := range writes {
		for _, m := range []*Mem{backed, unbacked} {
			if err := write(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if b, _ := backed.Read(p, 0, 64); bytes.Equal(b, make([]byte, 64)) {
			t.Fatalf("%s stored nothing on the backed memory", name)
		}
		if backed.Gen(p) != unbacked.Gen(p) {
			t.Fatalf("%s: generation %d on the backed memory, %d on the unbacked one", name, backed.Gen(p), unbacked.Gen(p))
		}
		if u, err := unbacked.Read(p, 0, 64); err != nil || !bytes.Equal(u, make([]byte, 64)) {
			t.Fatalf("%s: the unbacked allocation reads % x, %v, want zeros", name, u, err)
		}
		for _, m := range []*Mem{backed, unbacked} {
			if err := m.Write(p, 0, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	dst := bytes.Repeat([]byte{7}, 16)
	if err := unbacked.ReadInto(p, 48, dst); err != nil || !bytes.Equal(dst, make([]byte, 16)) {
		t.Fatalf("ReadInto from the unbacked allocation: % x, %v, want zeros", dst, err)
	}
	if mv := unbacked.Moves(); mv != (Moves{}) {
		t.Fatalf("the unbacked memory counted moves %+v", mv)
	}
	same("after the writes")

	// Pricing's check passes; every kernel bind and write-back is refused and
	// leaves the generation and the counts as they were. The backed memory
	// takes each.
	ro := &kpl.BufDecl{Name: "x", Elem: kpl.F32, ReadOnly: true}
	rw := &kpl.BufDecl{Name: "x", Elem: kpl.F32}
	if err := unbacked.CheckBind(p); err != nil {
		t.Fatalf("CheckBind of the unbacked allocation: %v", err)
	}
	kernelAccesses := map[string]func(m *Mem) error{
		"BindView":   func(m *Mem) error { _, err := m.BindView(p, kpl.F32); return err },
		"BindParam":  func(m *Mem) error { _, err := m.BindParam(p, ro, 0); return err },
		"BindBuffer": func(m *Mem) error { _, err := m.BindBuffer(p, kpl.F32); return err },
		"WriteBuffer": func(m *Mem) error {
			buf := kpl.NewBuffer(kpl.I32, 4)
			buf.I32s[2] = -1
			return m.WriteBuffer(p, buf)
		},
		"Commit": func(m *Mem) error {
			buf := kpl.NewBuffer(kpl.F32, 16)
			if m == backed {
				var err error
				if buf, err = m.BindParam(p, rw, 0); err != nil {
					return err
				}
			}
			buf.F32s[3] = 1
			return m.Commit(p, buf)
		},
	}
	for name, access := range kernelAccesses {
		if err := access(backed); err != nil {
			t.Fatalf("%s on the backed memory: %v", name, err)
		}
		gen := unbacked.Gen(p)
		if err := access(unbacked); !errors.Is(err, ErrNoBytes) {
			t.Fatalf("%s of the unbacked allocation: %v, want ErrNoBytes", name, err)
		}
		if unbacked.Gen(p) != gen {
			t.Fatalf("a refused %s changed the generation", name)
		}
	}
	if mv := unbacked.Moves(); mv != (Moves{}) {
		t.Fatalf("the unbacked memory counted moves %+v", mv)
	}

	// Every range the backed memory refuses, the unbacked one refuses alike.
	hostile := []int{-1, math.MinInt, math.MaxInt, math.MaxInt - 3, 61, 64, 65}
	for _, off := range hostile {
		for _, n := range append(hostile, 4) {
			calls := map[string]func(m *Mem) error{
				"Write":    func(m *Mem) error { return m.Write(p, off, make([]byte, max(0, min(n, 128)))) },
				"Fill":     func(m *Mem) error { return m.Fill(p, off, n, 1) },
				"Read":     func(m *Mem) error { _, err := m.Read(p, off, n); return err },
				"ReadInto": func(m *Mem) error { return m.ReadInto(p, off, make([]byte, max(0, min(n, 128)))) },
			}
			for name, call := range calls {
				errB, errU := call(backed), call(unbacked)
				if fmt.Sprint(errB) != fmt.Sprint(errU) {
					t.Fatalf("%s(off %d, n %d): backed %v, unbacked %v", name, off, n, errB, errU)
				}
			}
		}
	}
	same("after the hostile ranges")

	// A reservation has no bytes on either memory.
	r, err := unbacked.Reserve(16)
	if err != nil {
		t.Fatal(err)
	}
	_, read := unbacked.Read(r, 0, 4)
	if unbacked.Write(r, 0, []byte{1}) == nil || read == nil || unbacked.CheckBind(r) == nil || unbacked.Fill(r, 0, 1, 1) == nil {
		t.Fatal("a reservation on the unbacked memory took a byte access")
	}

	// Export lists the allocations, as zeros, and not the reservation; replayed
	// onto a fresh unbacked memory it rebuilds the accounting.
	exp := unbacked.Export()
	if len(exp) != len(ptrs) {
		t.Fatalf("Export lists %d entries, want %d", len(exp), len(ptrs))
	}
	if err := unbacked.Free(r); err != nil {
		t.Fatal(err)
	}
	replay := NewUnbacked(1 << 20)
	for i, e := range exp {
		if e.Ptr != ptrs[i] || !bytes.Equal(e.Data, make([]byte, len(e.Data))) {
			t.Fatalf("Export entry %d: %#x with % x", i, uint64(e.Ptr), e.Data)
		}
		if err := replay.AllocAt(e.Ptr, len(e.Data)); err != nil {
			t.Fatal(err)
		}
	}
	if replay.Used() != unbacked.Used() || replay.HighWater() != unbacked.HighWater() {
		t.Fatalf("replayed export: used %d, high water %#x; want %d, %#x",
			replay.Used(), uint64(replay.HighWater()), unbacked.Used(), uint64(unbacked.HighWater()))
	}
}
