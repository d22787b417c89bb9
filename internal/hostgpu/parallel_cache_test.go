package hostgpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/profile"
)

// parPropKernel has a shared read-only input, per-thread loop work, and a
// per-thread output. The loop bound is constant, so σ is static and its
// launches are cacheable (a TID-dependent bound would force the dynamic
// profile and bypass the cache).
func parPropKernel(t testing.TB) (*kpl.Kernel, *kir.Program) {
	t.Helper()
	k := &kpl.Kernel{
		Name: "parProp",
		Bufs: []kpl.BufDecl{
			{Name: "in", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			kpl.Let("x", kpl.Load("in", kpl.TID())),
			kpl.Let("acc", kpl.ToF32(kpl.Mod(kpl.TID(), kpl.CI(5)))),
			kpl.For("L", "i", kpl.CI(0), kpl.CI(6),
				kpl.Let("acc", kpl.Add(kpl.V("acc"), kpl.Mul(kpl.V("x"), kpl.ToF32(kpl.V("i")))))),
			kpl.Store("out", kpl.TID(), kpl.V("acc")),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, prog
}

type launchOutcome struct {
	out  []byte
	prof *profile.Profile
	dur  float64
}

// runPropLaunch provisions a fresh device, uploads the input, launches, and
// reads back the result.
func runPropLaunch(t *testing.T, workers int, noCache bool, grid, block int, input []float32) launchOutcome {
	t.Helper()
	n := grid * block
	g := New(arch.Quadro4000(), 1<<24)
	g.Mode = ExecFull
	g.Workers = workers
	g.NoTimingCache = noCache

	inPtr, err := g.Mem.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	outPtr, err := g.Mem.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 4*n)
	devmem.BufferToBytes(&kpl.Buffer{Elem: kpl.F32, F32s: input}, raw)
	if _, err := g.CopyH2D(0, inPtr, 0, raw); err != nil {
		t.Fatal(err)
	}
	k, prog := parPropKernel(t)
	prof, iv, err := g.Launch(0, &Launch{
		Kernel: k, Prog: prog,
		Grid: grid, Block: block,
		Bindings: map[string]devmem.Ptr{"in": inPtr, "out": outPtr},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := g.CopyD2H(0, outPtr, 0, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return launchOutcome{out: out, prof: prof, dur: iv.End - iv.Start}
}

// TestLaunchParallelMatchesSerial: for random geometries, a full launch with
// any worker count (and with the timing cache on or off) produces the same
// output bytes, profile, and simulated duration as the serial device.
func TestLaunchParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	workerChoices := []int{2, 3, 4, 8, 0}
	for trial := 0; trial < 12; trial++ {
		grid := rng.Intn(24) + 1
		block := rng.Intn(256) + 1
		input := make([]float32, grid*block)
		for i := range input {
			input[i] = rng.Float32()*8 - 4
		}
		ref := runPropLaunch(t, 1, true, grid, block, input)
		for _, w := range []int{workerChoices[rng.Intn(len(workerChoices))], 1} {
			for _, noCache := range []bool{true, false} {
				got := runPropLaunch(t, w, noCache, grid, block, input)
				if !reflect.DeepEqual(got.out, ref.out) {
					t.Fatalf("grid=%d block=%d workers=%d noCache=%v: output bytes differ", grid, block, w, noCache)
				}
				if !reflect.DeepEqual(got.prof, ref.prof) {
					t.Fatalf("grid=%d block=%d workers=%d noCache=%v: profiles differ\nref: %+v\ngot: %+v",
						grid, block, w, noCache, ref.prof, got.prof)
				}
				if got.dur != ref.dur {
					t.Fatalf("grid=%d block=%d workers=%d noCache=%v: duration %v != %v",
						grid, block, w, noCache, got.dur, ref.dur)
				}
			}
		}
	}
}

// TestTimingCacheHitsAndEquality: repeated launches with the same signature
// hit the cache (even through different allocations of the same size) and
// price identically; changing the geometry misses.
func TestTimingCacheHitsAndEquality(t *testing.T) {
	const grid, block = 8, 64
	const n = grid * block
	g := New(arch.Quadro4000(), 1<<24)
	g.Mode = ExecTimingOnly
	k, prog := parPropKernel(t)

	launch := func(grid, block int) *profile.Profile {
		t.Helper()
		inPtr, err := g.Mem.Alloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		outPtr, err := g.Mem.Alloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := g.Launch(0, &Launch{
			Kernel: k, Prog: prog,
			Grid: grid, Block: block,
			Bindings: map[string]devmem.Ptr{"in": inPtr, "out": outPtr},
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}

	p1 := launch(grid, block)
	hits0, misses0 := g.TimingCacheStats()
	if misses0 == 0 {
		t.Fatal("first launch should miss the timing cache")
	}
	p2 := launch(grid, block)
	hits1, _ := g.TimingCacheStats()
	if hits1 <= hits0 {
		t.Fatalf("second identical launch should hit the cache (hits %d -> %d)", hits0, hits1)
	}
	if p1.TimeSec != p2.TimeSec || !reflect.DeepEqual(p1.Sigma, p2.Sigma) {
		t.Fatalf("cached launch priced differently: %+v vs %+v", p1, p2)
	}

	_, missesBefore := g.TimingCacheStats()
	launch(grid/2, block) // different geometry → different key
	_, missesAfter := g.TimingCacheStats()
	if missesAfter <= missesBefore {
		t.Fatal("launch with different geometry should miss the cache")
	}

	// A cache-disabled device never records hits and prices identically.
	g2 := New(arch.Quadro4000(), 1<<24)
	g2.Mode = ExecTimingOnly
	g2.NoTimingCache = true
	inPtr, _ := g2.Mem.Alloc(4 * n)
	outPtr, _ := g2.Mem.Alloc(4 * n)
	p3, _, err := g2.Launch(0, &Launch{
		Kernel: k, Prog: prog,
		Grid: grid, Block: block,
		Bindings: map[string]devmem.Ptr{"in": inPtr, "out": outPtr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := g2.TimingCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("NoTimingCache device touched the cache: hits=%d misses=%d", hits, misses)
	}
	if p3.TimeSec != p1.TimeSec {
		t.Fatalf("cache on/off priced differently: %v vs %v", p3.TimeSec, p1.TimeSec)
	}
}
