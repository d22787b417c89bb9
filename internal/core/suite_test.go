package core

import (
	"math"
	"testing"

	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// TestFullSuiteThroughService pushes every benchmark in the registry through
// the complete ΣVP stack — cudart context, in-process backend, VP-control
// batching, Re-scheduler, coalescer, functional device execution — and
// compares every output buffer against the native reference computed
// directly. This is the paper's functional-validation claim (Section 1: ΣVP
// "can be used for functional validation") exercised end to end.
func TestFullSuiteThroughService(t *testing.T) {
	for _, bench := range kernels.All() {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			w := bench.MakeWorkload(1)

			// Native reference, computed outside the stack.
			ref := buildRefEnv(t, bench, w)
			if bench.Native == nil {
				t.Skip("no native reference")
			}
			if err := bench.Native(ref); err != nil {
				t.Fatal(err)
			}

			// The same workload through the service.
			m, s := farmOfOne(t, DefaultOptions())
			s.RegisterVP(0)
			defer s.UnregisterVP(0)
			ctx := cudart.NewContext(0, m.Backend(0))
			l := bench.NewLaunch(w)
			l.Bindings = map[string]devmem.Ptr{}
			for _, decl := range bench.Kernel.Bufs {
				ptr, err := ctx.Malloc(w.BufBytes[decl.Name])
				if err != nil {
					t.Fatal(err)
				}
				l.Bindings[decl.Name] = ptr
				if in, ok := w.Inputs[decl.Name]; ok {
					if err := ctx.MemcpyH2D(ptr, in); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ctx.LaunchKernel(l); err != nil {
				t.Fatal(err)
			}
			for _, name := range w.OutBufs {
				raw, err := ctx.MemcpyD2H(l.Bindings[name], w.BufBytes[name])
				if err != nil {
					t.Fatal(err)
				}
				decl := bench.Kernel.Buf(name)
				got := devmem.BufferFromBytes(decl.Elem, raw)
				want := ref.Bufs[name]
				if got.Len() != want.Len() {
					t.Fatalf("%s: length %d vs %d", name, got.Len(), want.Len())
				}
				for i := 0; i < got.Len(); i++ {
					a, b := got.At(i), want.At(i)
					if a.T == kpl.I32 {
						if a.I != b.I {
							t.Fatalf("%s[%d]: %d vs %d", name, i, a.I, b.I)
						}
						continue
					}
					if math.Abs(a.F-b.F) > 1e-4*(1+math.Abs(b.F)) {
						t.Fatalf("%s[%d]: %g vs %g", name, i, a.F, b.F)
					}
				}
			}
		})
	}
}

// buildRefEnv materializes the workload as an interpreter environment.
func buildRefEnv(t *testing.T, bench *kernels.Benchmark, w *kernels.Workload) *kpl.Env {
	t.Helper()
	env := &kpl.Env{NThreads: w.Threads(), Params: w.Params, Bufs: map[string]*kpl.Buffer{}}
	for _, decl := range bench.Kernel.Bufs {
		raw := make([]byte, w.BufBytes[decl.Name])
		if in, ok := w.Inputs[decl.Name]; ok {
			copy(raw, in)
		}
		env.Bufs[decl.Name] = devmem.BufferFromBytes(decl.Elem, raw)
	}
	return env
}
