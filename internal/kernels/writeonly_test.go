package kernels

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
)

// notWriteOnly are the registry kernels that load or atomically update a
// writable buffer: repeating one of their launches can change its result.
var notWriteOnly = []string{
	"binomialOptions", "fastWalshTransform", "histogram", "mergeSort", "nbody", "reduction", "smokeParticles",
}

// TestWriteOnlyPremise checks the premise of eliding a repeated launch
// (hostgpu.GPU.Elide): a kernel kir calls write-only rewrites, when run again
// over its own output, exactly the bytes it wrote the first time. Every such
// registry kernel runs at scales 1 and 2 on the compiled engine serially
// (ExecAll) and on two workers (ExecBlocks), and on its native, over two
// poisons of every writable buffer; a second run must leave every writable
// byte as the first left it.
func TestWriteOnlyPremise(t *testing.T) {
	var got []string
	for _, b := range All() {
		if !b.Prog.WriteOnly() {
			got = append(got, b.Name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, notWriteOnly) {
		t.Fatalf("kernels that are not write-only: %v, want %v", got, notWriteOnly)
	}
	type runner struct {
		name string
		run  func(env *kpl.Env) error
	}
	for _, b := range All() {
		if !b.Prog.WriteOnly() {
			continue
		}
		for scale := 1; scale <= 2; scale++ {
			w := b.MakeWorkload(scale)
			runners := []runner{
				{"compiled, serial", func(env *kpl.Env) error { return b.Kernel.ExecAll(env, nil) }},
				{"compiled, 2 workers", func(env *kpl.Env) error { return b.Kernel.ExecBlocks(env, nil, w.Block, 2) }},
			}
			if b.Native != nil {
				runners = append(runners, runner{"native", b.Native})
			}
			// writable returns the bytes of every writable buffer of env.
			writable := func(env *kpl.Env) (out [][]byte) {
				for _, decl := range b.Kernel.Bufs {
					if !decl.ReadOnly {
						raw := make([]byte, w.BufBytes[decl.Name])
						devmem.BufferToBytes(env.Bufs[decl.Name], raw)
						out = append(out, raw)
					}
				}
				return out
			}
			for _, r := range runners {
				for _, poison := range []byte{0xA5, 0x5C} {
					where := fmt.Sprintf("%s scale %d, %s, poison %#x", b.Name, scale, r.name, poison)
					env := buildEnv(t, b, w)
					for _, decl := range b.Kernel.Bufs {
						if !decl.ReadOnly {
							env.Bufs[decl.Name] = devmem.BufferFromBytes(decl.Elem, bytes.Repeat([]byte{poison}, w.BufBytes[decl.Name]))
						}
					}
					var runs [2][][]byte
					for i := range runs {
						if err := r.run(env); err != nil {
							t.Fatalf("%s, run %d: %v", where, i, err)
						}
						runs[i] = writable(env)
					}
					for i := range runs[0] {
						if !bytes.Equal(runs[0][i], runs[1][i]) {
							t.Errorf("%s: writable buffer %d changed on a second run", where, i)
						}
					}
				}
			}
		}
	}
}

// TestOnlyWriteOnlyLaunchesElided launches every registry kernel twice on a
// device: the second launch of a write-only kernel is elided, and leaves the
// bytes one launch on a fresh device leaves; a kernel that is not write-only
// is never elided.
func TestOnlyWriteOnlyLaunchesElided(t *testing.T) {
	for _, b := range All() {
		w := b.MakeWorkload(1)
		g := hostgpu.New(arch.Quadro4000(), 1<<28)
		l := provisionLaunch(t, g, b, w)
		for i := 0; i < 2; i++ {
			if _, _, err := g.Launch(0, l); err != nil {
				t.Fatalf("%s launch %d: %v", b.Name, i, err)
			}
		}
		if !b.Prog.WriteOnly() {
			if g.Elided() != 0 {
				t.Errorf("%s is not write-only and was elided", b.Name)
			}
			continue
		}
		if g.Elided() != 1 {
			t.Errorf("%s: elided %d of two identical launches, want 1", b.Name, g.Elided())
		}
		fresh := hostgpu.New(arch.Quadro4000(), 1<<28)
		lf := provisionLaunch(t, fresh, b, w)
		if _, _, err := fresh.Launch(0, lf); err != nil {
			t.Fatal(err)
		}
		for _, name := range w.OutBufs {
			n := w.BufBytes[name]
			got, err := g.Mem.Read(l.Bindings[name], 0, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Mem.Read(lf.Bindings[name], 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s after an elided relaunch differs from one launch on a fresh device", b.Name, name)
			}
		}
	}
}
