package kernels

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/devmem"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// TestCoveredPrefixIsOverwritten checks the premise of binding a writable
// buffer without copying in the prefix a launch overwrites
// (kir.Program.Covered): every registry kernel with such a buffer runs with it
// pre-filled with a poison byte, and longer than its workload asks, so there is
// a tail past the prefix. It runs on the compiled engine serially (ExecAll)
// and on two workers (ExecBlocks), and on its native, each twice with two
// different poisons. The prefix must come out the same bytes under both
// poisons, so nothing in it depends on what the buffer held, and the same
// bytes on all three runners. Every byte past the prefix must still be the
// poison. The compiled engine on two workers also runs at half and twice the
// workload's grid, which moves the prefix of a one-store-per-thread kernel;
// natives follow only the workload's own grid. The compiled engine's
// agreement with the interpreter is TestCompiledMatchesInterpreterSuite's.
func TestCoveredPrefixIsOverwritten(t *testing.T) {
	const extra = 37 // elements past the workload's buffer
	checked := 0
	for _, b := range All() {
		for scale := 1; scale <= 2; scale++ {
			w := b.MakeWorkload(scale)
			for i, decl := range b.Kernel.Bufs {
				size := w.BufBytes[decl.Name] + extra*decl.Elem.Size()
				type runner struct {
					name string
					grid int
					run  func(env *kpl.Env) error
				}
				runners := []runner{
					{"compiled, serial", w.Grid, func(env *kpl.Env) error { return b.Kernel.ExecAll(env, nil) }},
					{"compiled, 2 workers", w.Grid, func(env *kpl.Env) error { return b.Kernel.ExecBlocks(env, nil, w.Block, 2) }},
					{"compiled, 2 workers", max(w.Grid/2, 1), func(env *kpl.Env) error { return b.Kernel.ExecBlocks(env, nil, w.Block, 2) }},
					{"compiled, 2 workers", 2 * w.Grid, func(env *kpl.Env) error { return b.Kernel.ExecBlocks(env, nil, w.Block, 2) }},
				}
				if b.Native != nil {
					runners = append(runners, runner{"native", w.Grid, b.Native})
				}
				ref := map[int][]byte{} // grid → the first runner's prefix
				for _, r := range runners {
					nt := r.grid * w.Block
					covered := b.Prog.Covered(i, kir.Launch{NThreads: nt, Params: w.Params})
					if covered == 0 {
						continue
					}
					checked++
					skip := covered * decl.Elem.Size()
					where := fmt.Sprintf("%s/%s scale %d, %s at %d threads (prefix %d of %d elements)",
						b.Name, decl.Name, scale, r.name, nt, covered, size/decl.Elem.Size())
					var prefix []byte
					for _, poison := range []byte{0xA5, 0x5C} {
						env := buildEnv(t, b, w)
						env.NThreads = nt
						env.Bufs[decl.Name] = devmem.BufferFromBytes(decl.Elem, bytes.Repeat([]byte{poison}, size))
						if err := r.run(env); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						got := make([]byte, size)
						devmem.BufferToBytes(env.Bufs[decl.Name], got)
						if tail := got[skip:]; !bytes.Equal(tail, bytes.Repeat([]byte{poison}, len(tail))) {
							t.Errorf("%s: a byte past the prefix was written", where)
						}
						if prefix == nil {
							prefix = got[:skip]
						} else if !bytes.Equal(prefix, got[:skip]) {
							t.Errorf("%s: the prefix depends on the buffer's previous bytes", where)
						}
					}
					if want, ok := ref[nt]; !ok {
						ref[nt] = prefix
					} else if !bytes.Equal(want, prefix) {
						t.Errorf("%s: the prefix differs from the serial compiled run's", where)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no registry kernel has a covered buffer")
	}
}

// TestVectorAddNativeFaultsPastItsBuffers: the native indexes unchecked after
// one cut to n, and an n past a buffer must still fault there — as a runtime
// error the launch returns, not a write into the buffer's spare capacity.
func TestVectorAddNativeFaultsPastItsBuffers(t *testing.T) {
	w := VectorAdd.MakeWorkload(1)
	env := buildEnv(t, VectorAdd, w)
	for name, buf := range env.Bufs {
		spare := append(make([]float32, 0, buf.Len()+64), buf.F32s...)
		env.Bufs[name].F32s = spare
	}
	env.Params = map[string]kpl.Value{"n": kpl.IntVal(int64(w.N + 1))}
	err := VectorAdd.NewLaunch(w).Run("hostgpu", env, nil, 1)
	if err == nil || !strings.Contains(err.Error(), "native execution") {
		t.Fatalf("n past the buffers: err = %v", err)
	}
	for _, n := range []int64{0, -5, 3, int64(w.N)} {
		env.Params = map[string]kpl.Value{"n": kpl.IntVal(n)}
		if err := VectorAdd.Native(env); err != nil {
			t.Fatalf("n = %d: %v", n, err)
		}
	}
}

// BenchmarkVectorAddNative times vectorAdd's native alone on the 64 Ki-element
// shape copy-stream launches (scale 4).
func BenchmarkVectorAddNative(b *testing.B) {
	w := VectorAdd.MakeWorkload(4)
	env, err := BuildEnv(VectorAdd, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VectorAdd.Native(env); err != nil {
			b.Fatal(err)
		}
	}
}
