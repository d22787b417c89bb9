package devmem

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kpl"
)

// TestGenerationContract classifies every exported method of *Mem: a mutator
// that changes bytes must give the allocation it touches a fresh generation,
// a Write or Adopt that changes none must keep it, a reader must leave every
// generation as it was, and Free must drop the allocation's. The inventory is
// reflective, so a method added without a classification fails here. The
// mutators and readers keep the contract on a memory from NewUnbacked too,
// where a mutator stores nothing and is compared with nothing, so even a
// Write of the zeros an unbacked allocation reads takes a fresh generation;
// there the kernel binds and write-backs are refused (ErrNoBytes) and leave
// every generation as it was.
func TestGenerationContract(t *testing.T) {
	decl := &kpl.BufDecl{Name: "x", Elem: kpl.F32}
	ro := &kpl.BufDecl{Name: "x", Elem: kpl.F32, ReadOnly: true}
	const size = 1024
	// Every mutator writes bytes that differ from the fixture's zeros.
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i%251 + 1)
		}
		return b
	}
	mutators := map[string]func(m *Mem, p Ptr) (Ptr, error){
		"Alloc":   func(m *Mem, _ Ptr) (Ptr, error) { return m.Alloc(size) },
		"Reserve": func(m *Mem, _ Ptr) (Ptr, error) { return m.Reserve(size) },
		"AllocAt": func(m *Mem, p Ptr) (Ptr, error) {
			if err := m.Free(p); err != nil {
				return 0, err
			}
			return p, m.AllocAt(p, size)
		},
		"Write": func(m *Mem, p Ptr) (Ptr, error) { return p, m.Write(p, 8, []byte{1, 2, 3}) },
		"Adopt": func(m *Mem, p Ptr) (Ptr, error) {
			pl := NewPayload(size)
			defer pl.Release()
			copy(pl.B, pattern(size))
			return p, m.Adopt(p, 0, pl)
		},
		"Fill": func(m *Mem, p Ptr) (Ptr, error) { return p, m.Fill(p, 0, 16, 7) },
		"WriteBuffer": func(m *Mem, p Ptr) (Ptr, error) {
			buf := kpl.NewBuffer(kpl.F32, 4)
			buf.F32s[0] = 1
			return p, m.WriteBuffer(p, buf)
		},
		"Commit": func(m *Mem, p Ptr) (Ptr, error) {
			buf, err := m.BindParam(p, decl, 0)
			if err != nil {
				return 0, err
			}
			buf.F32s[0] = 1
			return p, m.Commit(p, buf)
		},
	}
	// keepers are the calls of Write and Adopt whose bytes equal what is
	// there: they must keep every generation and count their bytes unchanged.
	keepers := map[string]func(m *Mem, p Ptr) error{
		"Write": func(m *Mem, p Ptr) error { return m.Write(p, 8, make([]byte, 3)) },
		"Adopt": func(m *Mem, p Ptr) error {
			pl := NewPayload(size)
			defer pl.Release()
			clear(pl.B)
			return m.Adopt(p, 0, pl)
		},
	}
	readers := map[string]func(m *Mem, p Ptr) error{
		"Gen":      func(m *Mem, p Ptr) error { m.Gen(p); return nil },
		"Moves":    func(m *Mem, _ Ptr) error { m.Moves(); return nil },
		"Export":   func(m *Mem, _ Ptr) error { m.Export(); return nil },
		"Size":     func(m *Mem, p Ptr) error { _, err := m.Size(p); return err },
		"Used":     func(m *Mem, _ Ptr) error { m.Used(); return nil },
		"Capacity": func(m *Mem, _ Ptr) error { m.Capacity(); return nil },
		"Headroom": func(m *Mem, _ Ptr) error { m.Headroom(); return nil },
		"HighWater": func(m *Mem, _ Ptr) error {
			m.HighWater()
			return nil
		},
		"Read":       func(m *Mem, p Ptr) error { _, err := m.Read(p, 0, 16); return err },
		"ReadInto":   func(m *Mem, p Ptr) error { return m.ReadInto(p, 0, make([]byte, 16)) },
		"CheckRead":  func(m *Mem, p Ptr) error { return m.CheckRead(p, 0, 16) },
		"BindBuffer": func(m *Mem, p Ptr) error { _, err := m.BindBuffer(p, kpl.F32); return err },
		"BindParam": func(m *Mem, p Ptr) error {
			// A writable copy left uncommitted, and a read-only view.
			buf, err := m.BindParam(p, decl, 0)
			if err != nil {
				return err
			}
			ReleaseBuffer(buf)
			_, err = m.BindParam(p, ro, 0)
			return err
		},
		"BindView":  func(m *Mem, p Ptr) error { _, err := m.BindView(p, kpl.F32); return err },
		"CheckBind": func(m *Mem, p Ptr) error { return m.CheckBind(p) },
	}

	var methods []string
	ty := reflect.TypeOf(&Mem{})
	for i := 0; i < ty.NumMethod(); i++ {
		methods = append(methods, ty.Method(i).Name)
	}
	for _, name := range methods {
		_, mut := mutators[name]
		_, rd := readers[name]
		if !mut && !rd && name != "Free" {
			t.Errorf("(*Mem).%s is neither a classified mutator nor a reader", name)
		}
	}
	for name := range mutators {
		if !slices.Contains(methods, name) {
			t.Errorf("mutator %s is no method of *Mem", name)
		}
	}
	for name := range readers {
		if !slices.Contains(methods, name) {
			t.Errorf("reader %s is no method of *Mem", name)
		}
	}

	// fixture returns a memory from newMem with two allocations: the one
	// every call names and a bystander.
	fixture := func(t *testing.T, newMem func(int64) *Mem) (*Mem, Ptr, Ptr) {
		m := newMem(1 << 20)
		p, err := m.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		other, err := m.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return m, p, other
	}
	memories := map[string]func(int64) *Mem{"backed": New, "unbacked": NewUnbacked}
	// refused are the calls a byte-less allocation refuses.
	refused := func(kind, name string, err error) bool {
		switch name {
		case "BindBuffer", "BindParam", "BindView", "WriteBuffer", "Commit":
			if kind == "unbacked" {
				if !errors.Is(err, ErrNoBytes) {
					t.Errorf("unbacked %s: %v, want ErrNoBytes", name, err)
				}
				return true
			}
		}
		return false
	}
	for kind, newMem := range memories {
		for name, call := range mutators {
			m, p, other := fixture(t, newMem)
			before, otherBefore := m.Gen(p), m.Gen(other)
			touched, err := call(m, p)
			if refused(kind, name, err) {
				if m.Gen(p) != before || m.Gen(other) != otherBefore {
					t.Errorf("unbacked %s was refused and changed a generation", name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", kind, name, err)
			}
			g := m.Gen(touched)
			if g == 0 || (touched == p && g == before) {
				t.Errorf("%s %s left the generation of the allocation it changed at %d", kind, name, g)
			}
			if g <= otherBefore {
				t.Errorf("%s %s took generation %d, not past the bystander's %d", kind, name, g, otherBefore)
			}
			if m.Gen(other) != otherBefore {
				t.Errorf("%s %s changed a bystander's generation", kind, name)
			}
		}
		for name, call := range readers {
			m, p, other := fixture(t, newMem)
			before, otherBefore := m.Gen(p), m.Gen(other)
			if err := call(m, p); !refused(kind, name, err) && err != nil {
				t.Fatalf("%s %s: %v", kind, name, err)
			}
			if m.Gen(p) != before || m.Gen(other) != otherBefore {
				t.Errorf("%s reader %s changed a generation", kind, name)
			}
		}
	}
	for name, call := range keepers {
		m, p, other := fixture(t, New)
		before, otherBefore := m.Gen(p), m.Gen(other)
		if err := call(m, p); err != nil {
			t.Fatalf("%s of equal bytes: %v", name, err)
		}
		if m.Gen(p) != before || m.Gen(other) != otherBefore {
			t.Errorf("%s of equal bytes changed a generation", name)
		}
		if mv := m.Moves(); mv.UnchangedBytes == 0 || mv.CopiedBytes != 0 || mv.AdoptedBytes != 0 {
			t.Errorf("%s of equal bytes counted %+v, want only unchanged bytes", name, mv)
		}
	}

	// Free drops the generation, and the address allocated again never
	// takes one it had.
	m, p, _ := fixture(t, New)
	old := m.Gen(p)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if g := m.Gen(p); g != 0 {
		t.Errorf("a freed allocation keeps generation %d", g)
	}
	q, err := m.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("first fit put the reallocation at %#x, not %#x", q, p)
	}
	if g := m.Gen(q); g <= old {
		t.Errorf("the address allocated again took generation %d, not past its old %d", g, old)
	}
}
