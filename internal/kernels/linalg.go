package kernels

import (
	"repro/internal/devmem"
	"repro/internal/kpl"
)

// MatrixMul is the double-precision matrix multiply of Table 1:
// C(m×n) = A(m×k)·B(k×n), one thread per output element. The CUDA original
// stages tiles through shared memory, so only a fraction of the accesses
// reach L2 (L2Fraction).
var MatrixMul = register(&Benchmark{
	Name: "matrixMul",
	Kernel: &kpl.Kernel{
		Name: "matrixMul",
		Params: []kpl.ParamDecl{
			{Name: "m", T: kpl.I32},
			{Name: "n", T: kpl.I32},
			{Name: "k", T: kpl.I32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "a", Elem: kpl.F64, Access: kpl.AccessSeq, L2Fraction: 1.0 / 16, ReadOnly: true},
			{Name: "b", Elem: kpl.F64, Access: kpl.AccessSeq, L2Fraction: 1.0 / 16, ReadOnly: true},
			{Name: "c", Elem: kpl.F64, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			ifP(0.95, lt(tid(), mul(par("m"), par("n"))),
				let("row", div(tid(), par("n"))),
				let("col", mod(tid(), par("n"))),
				let("acc", cd(0)),
				forL("dotk", "kk", ci(0), par("k"),
					let("acc", add(lv("acc"),
						mul(load("a", add(mul(lv("row"), par("k")), lv("kk"))),
							load("b", add(mul(lv("kk"), par("n")), lv("col")))))),
				),
				store("c", tid(), lv("acc")),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		m := int(env.Params["m"].Int())
		n := int(env.Params["n"].Int())
		k := int(env.Params["k"].Int())
		a, b, c := env.Bufs["a"].F64s, env.Bufs["b"].F64s, env.Bufs["c"].F64s
		// Host order: row r of c is n accumulators, k walked four steps per
		// pass, each step one contiguous row of b. An element still takes its
		// k products in ascending k from +0, each rounded before its add (the
		// float64 conversions stop an FMA-fusing GOARCH rounding once), so the
		// output bits are the kernel body's.
		for r := 0; r < m; r++ {
			cr := c[r*n : (r+1)*n]
			clear(cr)
			ar := a[r*k : (r+1)*k]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a0, a1, a2, a3 := ar[kk], ar[kk+1], ar[kk+2], ar[kk+3]
				b0 := b[kk*n:][:len(cr)]
				b1 := b[(kk+1)*n:][:len(cr)]
				b2 := b[(kk+2)*n:][:len(cr)]
				b3 := b[(kk+3)*n:][:len(cr)]
				for j, v := range cr {
					v += float64(a0 * b0[j])
					v += float64(a1 * b1[j])
					v += float64(a2 * b2[j])
					v += float64(a3 * b3[j])
					cr[j] = v
				}
			}
			for ; kk < k; kk++ {
				a0 := ar[kk]
				b0 := b[kk*n:][:len(cr)]
				for j, v := range cr {
					cr[j] = v + float64(a0*b0[j])
				}
			}
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		return MatMulWorkload(16*scale, 64, 64)
	},
	Iterations:  10,
	Coalescable: true,
})

// MatMulWorkload builds an m×k by k×n double matrix multiply instance; the
// Table 1 experiment uses MatMulWorkload(320, 320, 320).
func MatMulWorkload(m, n, k int) *Workload {
	r := newPRNG(6)
	threads := m * n
	return &Workload{
		Grid:  ceilDiv(threads, 256),
		Block: 256,
		N:     threads,
		Params: map[string]kpl.Value{
			"m": kpl.IntVal(int64(m)),
			"n": kpl.IntVal(int64(n)),
			"k": kpl.IntVal(int64(k)),
		},
		BufBytes: map[string]int{"a": 8 * m * k, "b": 8 * k * n, "c": 8 * m * n},
		Inputs: map[string][]byte{
			"a": devmem.EncodeF64(r.f64Slice(m*k, -1, 1)),
			"b": devmem.EncodeF64(r.f64Slice(k*n, -1, 1)),
		},
		OutBufs: []string{"c"},
	}
}

// MergeSort approximates the CUDA SDK mergeSort's bottom level: each thread
// insertion-sorts its own segment in place. Comparison- and branch-heavy,
// nearly FP-free — the paper's lowest-speedup application (622×).
var MergeSort = register(&Benchmark{
	Name: "mergeSort",
	Kernel: &kpl.Kernel{
		Name: "mergeSort",
		Params: []kpl.ParamDecl{
			{Name: "seg", T: kpl.I32},
			{Name: "nseg", T: kpl.I32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "d", Elem: kpl.I32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			ifP(0.95, lt(tid(), par("nseg")),
				let("base", mul(tid(), par("seg"))),
				forL("outer", "i", ci(1), par("seg"),
					let("key", load("d", add(lv("base"), lv("i")))),
					let("j", sub(lv("i"), ci(1))),
					forL("inner", "jj", ci(0), par("seg"),
						ifS(lt(lv("j"), ci(0)), brk()),
						let("cur", load("d", add(lv("base"), lv("j")))),
						ifS(le(lv("cur"), lv("key")), brk()),
						store("d", add(lv("base"), add(lv("j"), ci(1))), lv("cur")),
						let("j", sub(lv("j"), ci(1))),
					),
					store("d", add(lv("base"), add(lv("j"), ci(1))), lv("key")),
				),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		seg := int(env.Params["seg"].Int())
		nseg := int(env.Params["nseg"].Int())
		d := env.Bufs["d"].I32s
		for t := 0; t < env.NThreads && t < nseg; t++ {
			base := t * seg
			for i := 1; i < seg; i++ {
				key := d[base+i]
				j := i - 1
				for j >= 0 && d[base+j] > key {
					d[base+j+1] = d[base+j]
					j--
				}
				d[base+j+1] = key
			}
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		seg := 32
		threads := 256 * scale
		n := seg * threads
		r := newPRNG(7)
		return &Workload{
			Grid:  ceilDiv(threads, 256),
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"seg":  kpl.IntVal(int64(seg)),
				"nseg": kpl.IntVal(int64(threads)),
			},
			BufBytes: map[string]int{"d": 4 * n},
			Inputs: map[string][]byte{
				"d": devmem.EncodeI32(r.i32Slice(n, 1<<20)),
			},
			OutBufs: []string{"d"},
		}
	},
	Iterations:        14,
	Coalescable:       true,
	CopyEachIteration: true,
})

// StereoDisparity scans candidate disparities per pixel with a 4-sample SAD
// (CUDA SDK stereoDisparity). Integer-dominated: a low-speedup workload.
var StereoDisparity = register(&Benchmark{
	Name: "stereoDisparity",
	Kernel: &kpl.Kernel{
		Name: "stereoDisparity",
		Params: []kpl.ParamDecl{
			{Name: "w", T: kpl.I32},
			{Name: "h", T: kpl.I32},
			{Name: "maxd", T: kpl.I32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "left", Elem: kpl.I32, Access: kpl.AccessSeq, L2Fraction: 0.25, ReadOnly: true},
			{Name: "right", Elem: kpl.I32, Access: kpl.AccessSeq, L2Fraction: 0.25, ReadOnly: true},
			{Name: "disp", Elem: kpl.I32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			let("n", mul(par("w"), par("h"))),
			ifP(0.95, lt(tid(), lv("n")),
				let("x", mod(tid(), par("w"))),
				let("best", ci(0)),
				let("bestSAD", ci(0x7FFFFFFF)),
				forL("dscan", "dd", ci(0), par("maxd"),
					let("xs", maxE(sub(lv("x"), lv("dd")), ci(0))),
					let("o", sub(lv("xs"), lv("x"))), // clamped shift
					let("sad", ci(0)),
					forL("win", "ww", ci(0), ci(4),
						let("idx", clampI(add(tid(), lv("ww")), ci(0), sub(lv("n"), ci(1)))),
						let("idxr", clampI(add(add(tid(), lv("o")), lv("ww")), ci(0), sub(lv("n"), ci(1)))),
						let("sad", add(lv("sad"), abs(sub(load("left", lv("idx")), load("right", lv("idxr")))))),
					),
					ifS(lt(lv("sad"), lv("bestSAD")),
						let("bestSAD", lv("sad")),
						let("best", lv("dd")),
					),
				),
				store("disp", tid(), lv("best")),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		w := int(env.Params["w"].Int())
		h := int(env.Params["h"].Int())
		maxd := int(env.Params["maxd"].Int())
		left, right, disp := env.Bufs["left"].I32s, env.Bufs["right"].I32s, env.Bufs["disp"].I32s
		n := w * h
		for t := 0; t < n && t < env.NThreads; t++ {
			x := t % w
			best, bestSAD := int32(0), int32(0x7FFFFFFF)
			for dd := 0; dd < maxd; dd++ {
				xs := x - dd
				if xs < 0 {
					xs = 0
				}
				o := xs - x
				var sad int32
				for ww := 0; ww < 4; ww++ {
					idx := clampInt(t+ww, 0, n-1)
					idxr := clampInt(t+o+ww, 0, n-1)
					dl := left[idx] - right[idxr]
					if dl < 0 {
						dl = -dl
					}
					sad += dl
				}
				if sad < bestSAD {
					bestSAD = sad
					best = int32(dd)
				}
			}
			disp[t] = best
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		w, h := 128, 16*scale
		n := w * h
		r := newPRNG(8)
		return &Workload{
			Grid:  ceilDiv(n, 256),
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"w":    kpl.IntVal(int64(w)),
				"h":    kpl.IntVal(int64(h)),
				"maxd": kpl.IntVal(16),
			},
			BufBytes: map[string]int{"left": 4 * n, "right": 4 * n, "disp": 4 * n},
			Inputs: map[string][]byte{
				"left":  devmem.EncodeI32(r.i32Slice(n, 256)),
				"right": devmem.EncodeI32(r.i32Slice(n, 256)),
			},
			OutBufs: []string{"disp"},
		}
	},
	Iterations:        8,
	Coalescable:       true,
	CopyEachIteration: true,
})

// SegmentationTree approximates segmentationTreeThrust's label-propagation
// phase: each thread repeatedly takes the minimum label among itself and two
// neighbours. File-driven in the SDK, hence the non-CUDA time.
var SegmentationTree = register(&Benchmark{
	Name: "segmentationTreeThrust",
	Kernel: &kpl.Kernel{
		Name: "segmentationTree",
		Params: []kpl.ParamDecl{
			{Name: "n", T: kpl.I32},
			{Name: "iters", T: kpl.I32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "labels", Elem: kpl.I32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			ifP(0.95, lt(tid(), par("n")),
				let("lab", load("labels", tid())),
				forL("prop", "it", ci(0), par("iters"),
					let("lnb", load("labels", clampI(sub(tid(), ci(1)), ci(0), sub(par("n"), ci(1))))),
					let("rnb", load("labels", clampI(add(tid(), ci(1)), ci(0), sub(par("n"), ci(1))))),
					let("lab", minE(lv("lab"), minE(lv("lnb"), lv("rnb")))),
				),
				store("out", tid(), lv("lab")),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		n := int(env.Params["n"].Int())
		labels, out := env.Bufs["labels"].I32s, env.Bufs["out"].I32s
		for t := 0; t < n && t < env.NThreads; t++ {
			lab := labels[t]
			if l := labels[clampInt(t-1, 0, n-1)]; l < lab {
				lab = l
			}
			if r := labels[clampInt(t+1, 0, n-1)]; r < lab {
				lab = r
			}
			out[t] = lab
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		n := 8192 * scale
		r := newPRNG(9)
		return &Workload{
			Grid:  ceilDiv(n, 256),
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"n":     kpl.IntVal(int64(n)),
				"iters": kpl.IntVal(8),
			},
			BufBytes: map[string]int{"labels": 4 * n, "out": 4 * n},
			Inputs: map[string][]byte{
				"labels": devmem.EncodeI32(r.i32Slice(n, 1<<24)),
			},
			OutBufs: []string{"out"},
		}
	},
	Iterations:        10,
	NonCUDAVPSeconds:  0.00012, // reads segmentation inputs from files
	Coalescable:       true,
	CopyEachIteration: true,
})
