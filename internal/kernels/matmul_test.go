package kernels

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/devmem"
	"repro/internal/kpl"
)

// matMulOracle is the per-thread transliteration of the kernel body — one
// output element at a time, its k products added in ascending k from +0, each
// product rounded before the add. The native ran this loop until it was
// rewritten in host order; it stays here as what the rewrite must equal where
// the interpreter takes too long.
func matMulOracle(m, n, k int, a, b, c []float64) {
	for r := 0; r < m; r++ {
		for col := 0; col < n; col++ {
			var acc float64
			for kk := 0; kk < k; kk++ {
				acc += float64(a[r*k+kk] * b[kk*n+col])
			}
			c[r*n+col] = acc
		}
	}
}

// matMulEnv is MatMulWorkload(m, n, k)'s environment with the given inputs in
// place of the workload's own and c pre-filled with garbage.
func matMulEnv(t testing.TB, m, n, k int, a, b []float64) *kpl.Env {
	t.Helper()
	w := MatMulWorkload(m, n, k)
	if a != nil {
		w.Inputs = map[string][]byte{"a": devmem.EncodeF64(a), "b": devmem.EncodeF64(b)}
	}
	env, err := BuildEnv(MatrixMul, w)
	if err != nil {
		t.Fatal(err)
	}
	c := env.Bufs["c"].F64s
	for i := range c {
		c[i] = -12345.678 * float64(i+1)
	}
	return env
}

// fullF64s fills a slice with values in [-1, 1) that use all 53 mantissa
// bits. The workloads' own inputs are float32-grained (multiples of 2^-23), so
// their products and partial sums are exact in float64 and any summation order
// gives the same bits; with these every multiply and nearly every add rounds,
// and a native that reorders a sum is caught.
func fullF64s(r *prng, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		mant := (uint64(r.next())<<32 | uint64(r.next())) >> 11
		out[i] = float64(mant)/(1<<52) - 1
	}
	return out
}

// specialInputs fills a (m×k) and b (k×n) with fullF64s and then makes every
// second, third and fourth row of a hard: one row of ±Inf (whose products with
// b's zeros and with each other make NaNs), one carrying a NaN, one of all -0;
// b gets -0 and +0 entries but stays finite, so each row of c can only ever
// hold NaNs of one payload and the result does not depend on which operand of
// an add the hardware propagates.
func specialInputs(m, n, k int) (a, b []float64) {
	r := newPRNG(uint32(1 + m + 31*n + 977*k))
	a, b = fullF64s(r, m*k), fullF64s(r, k*n)
	negZero := math.Copysign(0, -1)
	for i := range b {
		switch i % 7 {
		case 3:
			b[i] = negZero
		case 5:
			b[i] = 0
		}
	}
	for row := 0; row < m; row++ {
		ar := a[row*k : (row+1)*k]
		for i := range ar {
			switch row % 4 {
			case 1:
				if i%2 == 0 {
					ar[i] = math.Inf(1 - 2*(i/2%2))
				}
			case 2:
				if i == len(ar)/2 {
					ar[i] = math.NaN()
				}
			case 3:
				ar[i] = negZero
			default:
				if i%5 == 1 {
					ar[i] = negZero
				}
			}
		}
	}
	return a, b
}

func f64Bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestMatrixMulNativeShapes: the host-order native equals the interpreter bit
// for bit on every residue of k modulo its unroll, on k = 0, single rows and
// columns, non-square shapes and inputs with -0, ±Inf and NaN; it overwrites
// all of c and writes nothing else.
func TestMatrixMulNativeShapes(t *testing.T) {
	for _, s := range [][3]int{
		{3, 5, 0}, {1, 7, 1}, {5, 1, 2}, {4, 6, 3}, {2, 3, 4}, {5, 4, 5},
		{7, 9, 6}, {2, 2, 7}, {5, 3, 8}, {1, 1, 9}, {9, 17, 13}, {6, 2, 31},
	} {
		m, n, k := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(t *testing.T) {
			a, b := specialInputs(m, n, k)
			envInterp := matMulEnv(t, m, n, k, a, b)
			envNative := matMulEnv(t, m, n, k, a, b)
			if err := MatrixMul.Kernel.InterpretAll(envInterp, nil); err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			if err := MatrixMul.Native(envNative); err != nil {
				t.Fatalf("native: %v", err)
			}
			compareBuffers(t, "matrixMul", "c", envInterp.Bufs["c"], envNative.Bufs["c"])
			if !slices.Equal(f64Bits(envNative.Bufs["a"].F64s), f64Bits(a)) ||
				!slices.Equal(f64Bits(envNative.Bufs["b"].F64s), f64Bits(b)) {
				t.Error("native wrote to an input")
			}
			if k == 0 {
				for i, bits := range f64Bits(envNative.Bufs["c"].F64s) {
					if bits != 0 {
						t.Fatalf("k = 0: c[%d] = %#x, want +0", i, bits)
					}
				}
			}
		})
	}

	// Table 1's shape, against the oracle.
	t.Run("320x320x320", func(t *testing.T) {
		r := newPRNG(320)
		a, b := fullF64s(r, 320*320), fullF64s(r, 320*320)
		env := matMulEnv(t, 320, 320, 320, a, b)
		want := &kpl.Buffer{Elem: kpl.F64, F64s: make([]float64, 320*320)}
		matMulOracle(320, 320, 320, a, b, want.F64s)
		if err := MatrixMul.Native(env); err != nil {
			t.Fatal(err)
		}
		compareBuffers(t, "matrixMul", "c", want, env.Bufs["c"])
		if !slices.Equal(f64Bits(env.Bufs["a"].F64s), f64Bits(a)) ||
			!slices.Equal(f64Bits(env.Bufs["b"].F64s), f64Bits(b)) {
			t.Error("native wrote to an input")
		}
	})
}

// BenchmarkMatrixMulNative times the native alone — the reproduction's
// "host GPU" speed for this kernel — on the scale-1 shape every served
// workload launches and on Table 1's.
func BenchmarkMatrixMulNative(b *testing.B) {
	for _, s := range [][3]int{{16, 64, 64}, {320, 320, 320}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			env := matMulEnv(b, s[0], s[1], s[2], nil, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatrixMul.Native(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
