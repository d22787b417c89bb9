package hostgpu

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/kpl"
	"repro/internal/raceflag"
)

// readOut returns the launch's "out" bytes.
func readOut(t *testing.T, g *GPU, l *Launch) []byte {
	t.Helper()
	n, err := g.Mem.Size(l.Bindings["out"])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := g.Mem.Read(l.Bindings["out"], 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestElideRelaunch: a write-only launch repeated over unchanged memory is
// elided from its second run on, and everything but its functional half —
// profile, intervals, energy, the bytes a reader sees — is what a device that
// runs every launch produces.
func TestElideRelaunch(t *testing.T) {
	const n, runs = 512, 4
	g, ref := newQuadro(t), newQuadro(t)
	l, lr := prepVecAdd(t, g, n, 2, 256), prepVecAdd(t, ref, n, 2, 256)
	a, err := ref.Mem.Read(lr.Bindings["a"], 0, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		// The reference flips an input's first byte and restores it before
		// each launch: two real changes, so a fresh generation, nothing
		// scheduled, and it runs every time over the same bytes.
		flipped := append([]byte{^a[0]}, a[1:]...)
		for _, in := range [][]byte{flipped, a} {
			if err := ref.Mem.Write(lr.Bindings["a"], 0, in); err != nil {
				t.Fatal(err)
			}
		}
		p, iv, err := g.Launch(i%2, l)
		if err != nil {
			t.Fatal(err)
		}
		pr, ivr, err := ref.Launch(i%2, lr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, pr) || iv != ivr {
			t.Fatalf("run %d: profile or interval differs from a device that runs every launch", i)
		}
		if !bytes.Equal(readOut(t, g, l), readOut(t, ref, lr)) {
			t.Fatalf("run %d: out differs from a device that runs every launch", i)
		}
	}
	if got := g.Elided(); got != runs-1 {
		t.Errorf("elided %d launches, want %d", got, runs-1)
	}
	if got := ref.Elided(); got != 0 {
		t.Errorf("the reference elided %d launches, want 0", got)
	}
	if g.Sync() != ref.Sync() || g.SessionEnergy() != ref.SessionEnergy() {
		t.Errorf("clock %v / energy %v, the reference's %v / %v", g.Sync(), g.SessionEnergy(), ref.Sync(), ref.SessionEnergy())
	}
}

// TestElideFollowsEveryChange: after any change to what a launch binds or is,
// the next launch runs, and its output is what a fresh run computes.
func TestElideFollowsEveryChange(t *testing.T) {
	const n = 256
	k2, prog2 := vecAdd(t)
	k2.Name = "vectorAdd2" // a distinct kernel value with the same body
	steps := []struct {
		name   string
		change func(t *testing.T, g *GPU, l *Launch)
	}{
		{"one byte of an input", func(t *testing.T, g *GPU, l *Launch) {
			if err := g.Mem.Write(l.Bindings["b"], 4, []byte{0x40}); err != nil {
				t.Fatal(err)
			}
		}},
		{"a memset of the output", func(t *testing.T, g *GPU, l *Launch) {
			if _, err := g.Memset(0, l.Bindings["out"], 0, 4*n, 0x7F); err != nil {
				t.Fatal(err)
			}
		}},
		{"another kernel writing the output", func(t *testing.T, g *GPU, l *Launch) {
			other := *l
			other.Kernel, other.Prog = k2, prog2
			other.Bindings = map[string]devmem.Ptr{"a": l.Bindings["b"], "b": l.Bindings["b"], "out": l.Bindings["out"]}
			if _, _, err := g.Launch(0, &other); err != nil {
				t.Fatal(err)
			}
		}},
		{"free and reallocate at the same address", func(t *testing.T, g *GPU, l *Launch) {
			p := l.Bindings["out"]
			if err := g.Mem.Free(p); err != nil {
				t.Fatal(err)
			}
			if err := g.Mem.AllocAt(p, 4*n); err != nil {
				t.Fatal(err)
			}
		}},
		{"a write-back of the output", func(t *testing.T, g *GPU, l *Launch) {
			if err := g.Mem.WriteBuffer(l.Bindings["out"], kpl.NewBuffer(kpl.F32, n)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			g := newQuadro(t)
			l := prepVecAdd(t, g, n, 1, n)
			for i := 0; i < 2; i++ {
				if _, _, err := g.Launch(0, l); err != nil {
					t.Fatal(err)
				}
			}
			if g.Elided() != 1 {
				t.Fatalf("elided %d of two identical launches, want 1", g.Elided())
			}
			s.change(t, g, l)
			if _, _, err := g.Launch(0, l); err != nil {
				t.Fatal(err)
			}
			if g.Elided() != 1 {
				t.Fatal("the launch after the change was elided")
			}
			a, _ := g.Mem.Read(l.Bindings["a"], 0, 4*n)
			b, _ := g.Mem.Read(l.Bindings["b"], 0, 4*n)
			av, bv, out := devmem.DecodeF32(a), devmem.DecodeF32(b), devmem.DecodeF32(readOut(t, g, l))
			for i := range out {
				if out[i] != av[i]+bv[i] {
					t.Fatalf("out[%d] = %v, want %v", i, out[i], av[i]+bv[i])
				}
			}
		})
	}

	// A launch that differs from the recorded one in anything its output
	// may depend on runs.
	variants := []struct {
		name   string
		change func(l *Launch)
	}{
		{"a parameter", func(l *Launch) { l.Params = map[string]kpl.Value{"n": kpl.IntVal(n - 1)} }},
		{"the grid", func(l *Launch) { l.Grid, l.Block = 2, n/2 }},
		{"the native", func(l *Launch) { l.Native = func(env *kpl.Env) error { return l.Kernel.ExecAll(env, nil) } }},
		{"the kernel", func(l *Launch) { l.Kernel, l.Prog = k2, prog2 }},
		{"a binding", func(l *Launch) {
			l.Bindings = map[string]devmem.Ptr{"a": l.Bindings["b"], "b": l.Bindings["a"], "out": l.Bindings["out"]}
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			g := newQuadro(t)
			l := prepVecAdd(t, g, n, 1, n)
			if _, _, err := g.Launch(0, l); err != nil {
				t.Fatal(err)
			}
			other := *l
			v.change(&other)
			if g.Elide(&other) {
				t.Error("a launch differing from the recorded one would be elided")
			}
			if !g.Elide(l) {
				t.Error("the recorded launch itself would not be elided")
			}
		})
	}
}

// TestElideNeverAliased: a launch whose writable buffer shares its allocation
// with an input reads its own previous output, so repeating it changes the
// bytes; it is never elided.
func TestElideNeverAliased(t *testing.T) {
	const n = 256
	g := newQuadro(t)
	l := prepVecAdd(t, g, n, 1, n)
	l.Bindings["a"] = l.Bindings["out"] // out = out + b
	b, _ := g.Mem.Read(l.Bindings["b"], 0, 4*n)
	want := devmem.DecodeF32(readOut(t, g, l))
	for r := 0; r < 3; r++ {
		if _, _, err := g.Launch(0, l); err != nil {
			t.Fatal(err)
		}
		for i, v := range devmem.DecodeF32(b) {
			want[i] += v
		}
		if got := devmem.DecodeF32(readOut(t, g, l)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: out is not the aliased sum", r)
		}
	}
	if g.Elided() != 0 {
		t.Errorf("elided %d aliased launches", g.Elided())
	}
}

// TestElideNotAfterFailure: a failed run records nothing, so the same launch
// fails again instead of being elided.
func TestElideNotAfterFailure(t *testing.T) {
	g := newQuadro(t)
	l := prepVecAdd(t, g, 256, 1, 512)
	l.Params = map[string]kpl.Value{"n": kpl.IntVal(512)} // past every buffer
	for i := 0; i < 2; i++ {
		if _, _, err := g.Launch(0, l); err == nil {
			t.Fatalf("run %d of an out-of-range launch succeeded", i)
		}
	}
	if g.Elided() != 0 {
		t.Errorf("elided %d failed launches", g.Elided())
	}
}

// TestElideTimingOnly: a timing-only device never runs a functional half, so
// it elides nothing.
func TestElideTimingOnly(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	l := prepVecAdd(t, g, 256, 1, 256)
	for i := 0; i < 3; i++ {
		if _, _, err := g.Launch(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if g.Elided() != 0 || len(g.records) != 0 {
		t.Errorf("timing-only: %d elided, %d records", g.Elided(), len(g.records))
	}
}

// TestElideAllocs pins what the check and the record cost a launch that
// follows a fresh copy-in, the steady state of every loop that copies each
// iteration: nothing allocated, the record rewritten in place.
func TestElideAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	g := newQuadro(t)
	l := prepVecAdd(t, g, 256, 1, 256)
	if _, _, err := g.Launch(0, l); err != nil {
		t.Fatal(err)
	}
	// The copy-in alternates between two contents, so each one changes bytes.
	ins := [2][]byte{make([]byte, 16), {1}}
	copies := 0
	if a := testing.AllocsPerRun(100, func() {
		copies++
		if err := g.Mem.Write(l.Bindings["a"], 0, ins[copies%2]); err != nil {
			t.Fatal(err)
		}
		if g.Elide(l) {
			t.Fatal("elided a launch after a copy-in")
		}
		g.RecordRun(l)
	}); a != 0 {
		t.Errorf("the check and the record allocate %v times per launch, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if !g.Elide(l) {
			t.Fatal("a repeated launch was not elided")
		}
	}); a != 0 {
		t.Errorf("an elided launch's check allocates %v times, want 0", a)
	}
}

// TestRecordsBounded: records whose allocation was freed are dropped, so an
// alloc/launch/free churn over many addresses holds a number of records
// bounded by the live allocations, not by the addresses ever written.
func TestRecordsBounded(t *testing.T) {
	g := newQuadro(t)
	l := prepVecAdd(t, g, 64, 1, 64)
	seen := map[devmem.Ptr]bool{}
	var prev devmem.Ptr // freed once the next allocation is made
	live := 1           // the inputs' allocations are not keys: out's last one
	for i := 0; i < 2000; i++ {
		out, err := g.Mem.Alloc(4*64 + 256*(i%13))
		if err != nil {
			t.Fatal(err)
		}
		seen[out] = true
		l.Bindings["out"] = out
		if _, _, err := g.Launch(0, l); err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := g.Mem.Free(prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = out
		if i%20 == 0 { // every twentieth stays live
			live++
			prev = 0
		}
	}
	bound := 2*live + 64
	if len(seen) <= bound {
		t.Fatalf("the churn wrote %d addresses, too few to test a bound of %d", len(seen), bound)
	}
	if got := len(g.records); got > bound {
		t.Errorf("%d records for %d live allocations (%d addresses written)", got, live, len(seen))
	}
}
