package kernels

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// buildEnv materializes the workload's buffers into an interpreter
// environment.
func buildEnv(t *testing.T, b *Benchmark, w *Workload) *kpl.Env {
	t.Helper()
	env, err := BuildEnv(b, w)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// compareBuffers requires b to equal a bit for bit: floats by their IEEE bits
// (so -0 ≠ +0 and a NaN equals only itself), integers by value. No tolerance —
// a native that reorders a sum fails here.
func compareBuffers(t *testing.T, bench, name string, a, b *kpl.Buffer) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s/%s: length %d vs %d", bench, name, a.Len(), b.Len())
	}
	bad := 0
	for i := 0; i < a.Len(); i++ {
		va, vb := a.At(i), b.At(i)
		if va.I == vb.I && math.Float64bits(va.F) == math.Float64bits(vb.F) {
			continue
		}
		bad++
		if bad < 4 {
			t.Errorf("%s/%s[%d]: interp %v vs native %v", bench, name, i, va, vb)
		}
	}
	if bad > 0 {
		t.Fatalf("%s/%s: %d mismatches of %d", bench, name, bad, a.Len())
	}
}

// TestInterpreterNativeAgreement runs every benchmark's kernel both through
// the kpl interpreter (the tests' reference engine) and through its native Go
// implementation (the host-GPU semantics) on identical inputs and asserts
// the outputs match. This is the paper's binary-compatibility property: the
// same guest kernel produces the same results on either back end.
func TestInterpreterNativeAgreement(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Native == nil {
				t.Skip("no native implementation")
			}
			w := b.MakeWorkload(1)
			envInterp := buildEnv(t, b, w)
			envNative := buildEnv(t, b, w)
			if err := b.Kernel.InterpretAll(envInterp, nil); err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			if err := b.Native(envNative); err != nil {
				t.Fatalf("native: %v", err)
			}
			for _, name := range w.OutBufs {
				compareBuffers(t, b.Name, name, envInterp.Bufs[name], envNative.Bufs[name])
			}
		})
	}
}

// TestSigmaConsistency checks that the static σ derivation (Eq. 1) agrees
// with the interpreter's exact dynamic counts to within the static branch
// probability error.
func TestSigmaConsistency(t *testing.T) {
	neutral := arch.Quadro4000() // Expand = 1 everywhere
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			w := b.MakeWorkload(1)
			env := buildEnv(t, b, w)
			st := kpl.NewStats()
			if err := b.Kernel.InterpretAll(env, st); err != nil {
				t.Fatal(err)
			}
			sigma, err := b.Prog.Sigma(&neutral, kir.Launch{NThreads: w.Threads(), Params: w.Params}, st)
			if err != nil {
				t.Fatal(err)
			}
			got, want := sigma.Sum(), st.Instr.Sum()
			if want == 0 {
				t.Fatal("kernel executed no instructions")
			}
			rel := math.Abs(got-want) / want
			if rel > 0.20 {
				t.Errorf("σ static %v vs dynamic %v (%.1f%% off)", got, want, 100*rel)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 28 {
		t.Fatalf("expected 28 benchmarks, have %d: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("Names not sorted")
		}
	}
	if len(All()) != len(names) {
		t.Fatal("All/Names mismatch")
	}
	if _, err := Get("vectorAdd"); err != nil {
		t.Error(err)
	}
	if _, err := Get("ghost"); err == nil {
		t.Error("Get accepted unknown name")
	}
}

// TestCoalescableSetMatchesPaper: the paper names the applications whose
// kernels are not sped up by the optimizations "mostly due to the way they
// access and manage the memory".
func TestCoalescableSetMatchesPaper(t *testing.T) {
	unfriendly := map[string]bool{
		"convolutionSeparable": true,
		"dct8x8":               true,
		"SobelFilter":          true,
		"MonteCarlo":           true,
		"nbody":                true,
		"smokeParticles":       true,
	}
	for _, b := range All() {
		if want := !unfriendly[b.Name]; b.Coalescable != want {
			t.Errorf("%s: Coalescable = %v, want %v", b.Name, b.Coalescable, want)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, b := range All() {
		for _, scale := range []int{1, 2, 4} {
			w := b.MakeWorkload(scale)
			if w.Grid <= 0 || w.Block <= 0 {
				t.Errorf("%s@%d: bad shape %d×%d", b.Name, scale, w.Grid, w.Block)
			}
			if w.N <= 0 {
				t.Errorf("%s@%d: zero problem size", b.Name, scale)
			}
			if len(w.OutBufs) == 0 {
				t.Errorf("%s@%d: no output buffers", b.Name, scale)
			}
			for _, name := range w.OutBufs {
				if _, ok := w.BufBytes[name]; !ok {
					t.Errorf("%s@%d: out buffer %q unallocated", b.Name, scale, name)
				}
			}
			for name, in := range w.Inputs {
				if len(in) > w.BufBytes[name] {
					t.Errorf("%s@%d: input %q larger than allocation", b.Name, scale, name)
				}
			}
			if w.InBytes() < 0 || w.OutBytes() <= 0 {
				t.Errorf("%s@%d: byte accounting broken", b.Name, scale)
			}
		}
	}
}

// TestWorkloadScaleGrowsWork: larger scales must not shrink the problem.
func TestWorkloadScaleGrowsWork(t *testing.T) {
	for _, b := range All() {
		w1 := b.MakeWorkload(1)
		w8 := b.MakeWorkload(8)
		if w8.N < w1.N {
			t.Errorf("%s: scale 8 smaller than scale 1 (%d < %d)", b.Name, w8.N, w1.N)
		}
		if w8.Threads() < w1.Threads() {
			t.Errorf("%s: scale 8 fewer threads", b.Name)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, b := range All() {
		a := b.MakeWorkload(2)
		c := b.MakeWorkload(2)
		for name, in := range a.Inputs {
			other := c.Inputs[name]
			if len(in) != len(other) {
				t.Fatalf("%s/%s: nondeterministic input size", b.Name, name)
			}
			for i := range in {
				if in[i] != other[i] {
					t.Fatalf("%s/%s: nondeterministic input content", b.Name, name)
				}
			}
		}
	}
}

func TestIterationMetadata(t *testing.T) {
	for _, b := range All() {
		if b.Iterations <= 0 {
			t.Errorf("%s: non-positive Iterations", b.Name)
		}
		if b.NonCUDAVPSeconds < 0 {
			t.Errorf("%s: negative non-CUDA time", b.Name)
		}
	}
	// The GL/file-bound set must carry non-CUDA time (paper Section 5).
	for _, name := range []string{
		"Mandelbrot", "bicubicTexture", "recursiveGaussian", "MonteCarlo",
		"segmentationTreeThrust", "simpleGL", "marchingCubes",
		"VolumeFiltering", "SobelFilter", "nbody", "smokeParticles",
	} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.NonCUDAVPSeconds <= 0 {
			t.Errorf("%s: expected non-CUDA VP time", name)
		}
	}
}

func TestNewLaunch(t *testing.T) {
	b, err := Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	w := b.MakeWorkload(1)
	l := b.NewLaunch(w)
	if l.Kernel != b.Kernel || l.Prog != b.Prog {
		t.Error("launch kernel/program mismatch")
	}
	if l.Grid != w.Grid || l.Block != w.Block {
		t.Error("launch shape mismatch")
	}
	if l.Native == nil {
		t.Error("launch should carry native semantics")
	}
}

func TestMatMulWorkloadSquare(t *testing.T) {
	w := MatMulWorkload(320, 320, 320)
	if w.Threads() < 320*320 {
		t.Errorf("threads %d < elements %d", w.Threads(), 320*320)
	}
	if w.BufBytes["a"] != 8*320*320 {
		t.Errorf("A allocation %d", w.BufBytes["a"])
	}
}

// TestMergeSortActuallySorts is a stronger functional check than agreement:
// the output segments are sorted permutations of the inputs.
func TestMergeSortActuallySorts(t *testing.T) {
	b, err := Get("mergeSort")
	if err != nil {
		t.Fatal(err)
	}
	w := b.MakeWorkload(1)
	env := buildEnv(t, b, w)
	before := append([]int32(nil), env.Bufs["d"].I32s...)
	if err := b.Kernel.ExecAll(env, nil); err != nil {
		t.Fatal(err)
	}
	d := env.Bufs["d"].I32s
	seg := int(w.Params["seg"].Int())
	for s := 0; s < len(d)/seg; s++ {
		var sumB, sumA int64
		for i := 0; i < seg; i++ {
			sumB += int64(before[s*seg+i])
			sumA += int64(d[s*seg+i])
			if i > 0 && d[s*seg+i] < d[s*seg+i-1] {
				t.Fatalf("segment %d not sorted at %d", s, i)
			}
		}
		if sumA != sumB {
			t.Fatalf("segment %d not a permutation", s)
		}
	}
}

// TestHistogramCountsSum: total bin mass equals the element count.
func TestHistogramCountsSum(t *testing.T) {
	b, err := Get("histogram")
	if err != nil {
		t.Fatal(err)
	}
	w := b.MakeWorkload(1)
	env := buildEnv(t, b, w)
	if err := b.Kernel.ExecAll(env, nil); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range env.Bufs["bins"].I32s {
		if c < 0 {
			t.Fatal("negative bin")
		}
		total += int64(c)
	}
	if total != int64(w.N) {
		t.Fatalf("bin mass %d != %d elements", total, w.N)
	}
}

// TestBlackScholesPutCallParity: C − P = S − X·e^{−rT} within f32 tolerance.
func TestBlackScholesPutCallParity(t *testing.T) {
	b, err := Get("BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	w := b.MakeWorkload(1)
	env := buildEnv(t, b, w)
	if err := b.Native(env); err != nil {
		t.Fatal(err)
	}
	rr := float32(w.Params["r"].Float())
	s := env.Bufs["price"].F32s
	x := env.Bufs["strike"].F32s
	yr := env.Bufs["years"].F32s
	call := env.Bufs["call"].F32s
	put := env.Bufs["put"].F32s
	n := int(w.Params["n"].Int())
	for i := 0; i < n; i += 97 {
		lhs := float64(call[i] - put[i])
		rhs := float64(s[i]) - float64(x[i])*math.Exp(-float64(rr)*float64(yr[i]))
		if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(rhs)) {
			t.Fatalf("parity violated at %d: %g vs %g", i, lhs, rhs)
		}
	}
}

// TestMandelbrotInteriorExterior: a point inside the set hits maxIter; a far
// exterior point escapes immediately.
func TestMandelbrotInteriorExterior(t *testing.T) {
	b, err := Get("Mandelbrot")
	if err != nil {
		t.Fatal(err)
	}
	w := b.MakeWorkload(1)
	env := buildEnv(t, b, w)
	if err := b.Native(env); err != nil {
		t.Fatal(err)
	}
	out := env.Bufs["out"].I32s
	wd := int(w.Params["w"].Int())
	h := int(w.Params["h"].Int())
	maxIter := int32(w.Params["maxIter"].Int())
	// Interior: cx≈-0.4 (x where x/w*3−2.2 ≈ −0.4 → x=0.6w), cy≈0 (y=h/2).
	interior := (h/2)*wd + (wd * 6 / 10)
	if out[interior] != maxIter {
		t.Errorf("interior point escaped at %d", out[interior])
	}
	// Exterior: corner (cx=−2.2, cy=−1.2) escapes quickly.
	if out[0] >= maxIter {
		t.Error("corner did not escape")
	}
}
