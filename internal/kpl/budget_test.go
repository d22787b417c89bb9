package kpl_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/kpl"
)

// TestDispatchBudget pins what the engine's speed on emul-kpl rests on: the
// instructions exec dispatches per launch of the four kernels that workload
// runs, at scale 1. The counts are exact and repeat; a change to the compiler
// that moves one shows the stream it produced.
func TestDispatchBudget(t *testing.T) {
	for name, want := range map[string]int64{
		"vectorAdd":    163844, // 10 a thread: the loop bound is the prologue's
		"BlackScholes": 512953, // 62.6
		"matrixMul":    269314, // 263: four in the inner loop
		"reduction":    86020,  // 84
	} {
		b, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		w := b.MakeWorkload(1)
		env, err := kernels.BuildEnv(b, w)
		if err != nil {
			t.Fatal(err)
		}
		got, listing, err := kpl.Dispatches(b.Kernel, env)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: %d dispatches for %d threads (%.1f per thread), want %d\n%s",
				name, got, w.Threads(), float64(got)/float64(w.Threads()), want, listing)
		}
	}
}
