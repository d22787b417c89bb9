package kernels

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kpl"
	"repro/internal/kpl/kplgen"
)

// TestSuiteKernelsCompile asserts that every benchmark kernel is covered by
// the compiler (registration, through kir.Analyze, would refuse one that is
// not). Without this, the differential tests below could pass vacuously
// comparing two refusals.
func TestSuiteKernelsCompile(t *testing.T) {
	for _, b := range All() {
		if _, err := kpl.Compile(b.Kernel); err != nil {
			t.Errorf("%s: does not compile: %v", b.Name, err)
		}
	}
}

// TestCompiledMatchesInterpreterSuite runs every benchmark of the suite
// through the reference interpreter and the compiled engine across three
// launch geometries and worker counts {1, 4}, asserting bit-identical
// buffers, statistics, and errors. This is the hard invariant of the
// compiled engine: no caller can observe which engine executed a kernel.
func TestCompiledMatchesInterpreterSuite(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			w := b.MakeWorkload(1)
			env := buildEnv(t, b, w)
			n := w.Threads()
			// Three geometries: the workload's own blocking, one single
			// block, and a deliberately ragged block size.
			for _, blockSize := range []int{w.Block, n, 13} {
				for _, workers := range []int{1, 4} {
					if err := kplgen.CheckDiff(b.Kernel, env, blockSize, workers); err != nil {
						t.Fatalf("bs=%d workers=%d: %v", blockSize, workers, err)
					}
				}
			}
		})
	}
}

// TestRandomKernelsDifferential decodes pseudo-random byte strings into
// valid kernels (the same generator the fuzzer uses) and checks
// interpreter/compiled bit-identity on each. Random kernels freely hit the
// engine's error paths — out-of-range accesses at run time, unbound names
// and undefined variables as refusals before it — so this doubles as an
// error-identity test.
func TestRandomKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5167a))
	decoded, compiled, unbound := 0, 0, 0
	for i := 0; i < 600; i++ {
		data := make([]byte, 24+rng.Intn(160))
		rng.Read(data)
		k, env, ok := kplgen.Decode(data)
		if !ok {
			continue
		}
		decoded++
		if p, err := kpl.Compile(k); err == nil {
			compiled++
			if p.ExecRange(0, 0, env, nil) != nil { // binds, runs no thread
				unbound++
			}
		}
		// Serial comparison only: random kernels may read across block
		// boundaries, where parallel shadow-buffer semantics legitimately
		// differ from the serial thread order.
		if err := kplgen.CheckDiff(k, env, 8, 1); err != nil {
			t.Fatalf("seed %d: %v\nkernel:\n%s", i, err, k.String())
		}
	}
	if decoded == 0 {
		t.Fatal("no random kernels decoded")
	}
	// Guard against vacuity: a healthy fraction must take the compiled path.
	if compiled*4 < decoded {
		t.Fatalf("only %d/%d random kernels compiled — generator or compiler regressed", compiled, decoded)
	}
	t.Logf("%d random kernels: %d compiled, of which %d ran and %d did not bind; %d refused by Compile",
		decoded, compiled, compiled-unbound, unbound, decoded-compiled)
}

// hazardSeeds encodes one kernel per place where the compiled engine's
// representation could part from the interpreter's: an f32 held as float32
// (a signalling NaN in a buffer, an integer above 2^24 in arithmetic, in a
// comparison and under an intrinsic, a constant and a parameter float32 does
// not hold, a product of two NaNs), a fused instruction that faults, a hoisted
// one that leads a fault. Each replaces the launch Encode writes — parameters
// of 4 or 1.0, 16 small elements per buffer — by its own.
func hazardSeeds(t testing.TB) [][]byte {
	const (
		big    = 1<<24 + 1
		esc    = 0x80 // kplgen's escape into its edge tables
		tenth  = 0    // 0.1 in the float table
		nanIdx = 11   // a quiet NaN there
		sNaN   = 110  // a fill seed that leaves a signalling NaN at [15]
	)
	f32 := func(name string, ro bool) kpl.BufDecl { return kpl.BufDecl{Name: name, Elem: kpl.F32, ReadOnly: ro} }
	bigT := add(ci(big), tid())
	var seeds [][]byte
	for _, h := range []struct {
		k    *kpl.Kernel
		tail []byte // after the thread count: parameters, then buffers
	}{
		{&kpl.Kernel{Name: "snan", Bufs: []kpl.BufDecl{f32("o", false), f32("in", true)}, Body: []kpl.Stmt{
			store("o", tid(), load("in", tid())),
			atomAdd("o", tid(), mul(load("in", ci(15)), load("in", tid()))),
		}}, []byte{0, 16, 1, 0, 16, sNaN}},
		{&kpl.Kernel{Name: "mixed", Bufs: []kpl.BufDecl{f32("o", false), {Name: "flag", Elem: kpl.I32}}, Body: []kpl.Stmt{
			store("o", ci(0), add(bigT, cf(1))),
			store("o", ci(1), add(ci(big), cf(1))),
			store("o", ci(2), sqrtE(bigT)),
			store("flag", ci(0), lt(cf(1<<24), bigT)),
			ifS(lt(cf(1<<24), bigT), store("flag", tid(), bigT)),
		}}, []byte{0, 16, 1, 0, 16, 2}},
		{&kpl.Kernel{Name: "param", Params: []kpl.ParamDecl{{Name: "p", T: kpl.F32}}, Bufs: []kpl.BufDecl{f32("o", false)}, Body: []kpl.Stmt{
			store("o", tid(), mul(par("p"), load("o", tid()))),
		}}, []byte{0, esc, tenth, 0, 16, 1}},
		{&kpl.Kernel{Name: "const", Bufs: []kpl.BufDecl{f32("o", false)}, Body: []kpl.Stmt{
			store("o", tid(), mul(&kpl.Const{T: kpl.F32, F: 0.1}, load("o", tid()))),
		}}, []byte{0, 16, 1}},
		{&kpl.Kernel{Name: "nans", Params: []kpl.ParamDecl{{Name: "p", T: kpl.F32}}, Bufs: []kpl.BufDecl{f32("o", false), f32("in", true)}, Body: []kpl.Stmt{
			store("o", tid(), mul(load("in", ci(15)), par("p"))),
			store("o", ci(0), sub(mul(par("p"), load("in", ci(15))), load("in", tid()))),
		}}, []byte{0, esc, nanIdx, 0, 16, 1, 0, 16, sNaN}},
		{&kpl.Kernel{Name: "faults", Params: []kpl.ParamDecl{{Name: "m", T: kpl.I32}}, Bufs: []kpl.BufDecl{f32("o", false), f32("in", true)}, Body: []kpl.Stmt{
			store("o", tid(), load("in", add(mul(tid(), ci(3)), ci(1)))),
			store("o", tid(), add(load("in", mul(par("m"), ci(4))), mul(par("m"), ci(2)))),
		}}, []byte{0, 4, 0, 16, 1, 0, 16, 2}},
	} {
		if err := h.k.Validate(); err != nil {
			t.Fatal(err)
		}
		data := kplgen.Encode(h.k, 8)
		launch := 2*len(h.k.Params) + 3*len(h.k.Bufs) // what Encode wrote after the thread count
		seeds = append(seeds, append(data[:len(data)-launch], h.tail...))
	}
	return seeds
}

// TestHazardSeedsReachTheirHazard: the seeds decode to launches that hold what
// they were written for, so a change to kplgen's format cannot quietly turn
// them into ordinary kernels — and pass, like any input.
func TestHazardSeedsReachTheirHazard(t *testing.T) {
	var sawSNaN, sawTenth, sawRefusal, sawBindError, sawFault bool
	for _, data := range hazardSeeds(t) {
		k, env, ok := kplgen.Decode(data)
		if !ok {
			t.Fatal("a hazard seed does not decode")
		}
		if b := env.Bufs["b1"]; b != nil && b.Elem == kpl.F32 && b.Len() == 16 {
			v := b.F32s[15]
			sawSNaN = sawSNaN || v != v && math.Float32bits(v)&(1<<22) == 0
		}
		sawTenth = sawTenth || env.Params["p0"] == kpl.Value{T: kpl.F32, F: 0.1}
		if _, err := kpl.Compile(k); err != nil {
			sawRefusal = sawRefusal || strings.Contains(err.Error(), "not float32-representable")
		}
		switch err := k.ExecAll(kplgen.CloneEnv(env), nil).(type) {
		case *kpl.BindError:
			sawBindError = sawBindError || strings.Contains(err.Error(), "not float32-representable")
		case *kpl.Error:
			sawFault = true
		}
		if err := kplgen.CheckDiff(k, env, 8, 1); err != nil {
			t.Errorf("%v\nkernel:\n%s", err, k.String())
		}
	}
	if !sawSNaN || !sawTenth || !sawRefusal || !sawBindError || !sawFault {
		t.Errorf("signalling NaN %v, f32 parameter 0.1 %v, refused constant %v, refused parameter %v, fault %v: want all",
			sawSNaN, sawTenth, sawRefusal, sawBindError, sawFault)
	}
}

// FuzzCompiledVsInterp is the open-ended version of the differential test:
// any byte string decodes to a valid kernel plus environment, and the fuzzer
// fails on any divergence between the interpreter and the compiled engine in
// buffers, statistics, or error text — or, for a launch the engine refuses,
// on any entry point that does not return that refusal. The corpus is seeded with the encoded
// benchmark suite so fuzzing starts from realistic kernel shapes.
//
// Run with: go test -fuzz FuzzCompiledVsInterp ./internal/kernels
func FuzzCompiledVsInterp(f *testing.F) {
	for _, b := range All() {
		w := b.MakeWorkload(1)
		f.Add(kplgen.Encode(b.Kernel, w.Threads()))
	}
	f.Add([]byte{2, 1, 0, 3, 1, 1, 2, 0, 5})
	f.Add([]byte{0, 0, 0, 3, 3, 0, 1, 7, 0, 1, 5, 0, 1, 2})
	// Regression: this input once decoded to a float-typed loop bound whose
	// NaN defeated the generator's Mod clamp, hanging both engines for ~2^63
	// iterations (see clampBound in kplgen).
	f.Add([]byte("\x01\x00\x02\x01\x01\x00\x01\x01\x00\x03\x00\x10K"))
	for _, seed := range hazardSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, env, ok := kplgen.Decode(data)
		if !ok {
			return // only empty input fails to decode
		}
		if err := kplgen.CheckDiff(k, env, 8, 1); err != nil {
			t.Fatalf("%v\nkernel:\n%s", err, k.String())
		}
	})
}
