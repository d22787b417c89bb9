package kernels

import (
	"fmt"

	"repro/internal/devmem"
	"repro/internal/kpl"
)

// VectorAdd is the canonical elementwise kernel of Fig. 10: a grid-stride
// c[i] = a[i] + b[i]. Fully coalescable — splitting the same total input
// across N programs and merging them back is the paper's coalescing study.
var VectorAdd = register(&Benchmark{
	Name: "vectorAdd",
	Kernel: &kpl.Kernel{
		Name:   "vectorAdd",
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "a", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "b", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			forL("elems", "j", ci(0), eptExpr(par("n")),
				let("i", gsIndex("j")),
				ifP(0.95, lt(lv("i"), par("n")),
					store("out", lv("i"), add(load("a", lv("i")), load("b", lv("i")))),
				),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		n := max(int(env.Params["n"].Int()), 0)
		// Cut to n once, capacity at length so an n past a buffer faults here
		// as a runtime error; the loop then bounds-checks one window of four
		// elements per step instead of every index.
		a, b, out := env.Bufs["a"].F32s, env.Bufs["b"].F32s, env.Bufs["out"].F32s
		a, b, out = a[:n:len(a)], b[:n:len(b)], out[:n:len(out)]
		i := 0
		for ; i+4 <= n; i += 4 {
			x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
			o[0] = x[0] + y[0]
			o[1] = x[1] + y[1]
			o[2] = x[2] + y[2]
			o[3] = x[3] + y[3]
		}
		for ; i < n; i++ {
			out[i] = a[i] + b[i]
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		n := 16384 * scale
		r := newPRNG(1)
		return &Workload{
			Grid:  ceilDiv(n, 512),
			Block: 512,
			N:     n,
			Params: map[string]kpl.Value{
				"n": kpl.IntVal(int64(n)),
			},
			BufBytes: map[string]int{"a": 4 * n, "b": 4 * n, "out": 4 * n},
			Inputs: map[string][]byte{
				"a": devmem.EncodeF32(r.f32Slice(n, -1, 1)),
				"b": devmem.EncodeF32(r.f32Slice(n, -1, 1)),
			},
			OutBufs: []string{"out"},
		}
	},
	Iterations:        12,
	Coalescable:       true,
	CopyEachIteration: true,
})

// ScalarProd computes dot products of vector pairs (CUDA SDK scalarProd):
// one thread per pair.
var ScalarProd = register(&Benchmark{
	Name: "scalarProd",
	Kernel: &kpl.Kernel{
		Name: "scalarProd",
		Params: []kpl.ParamDecl{
			{Name: "nv", T: kpl.I32},
			{Name: "len", T: kpl.I32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "a", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "b", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: []kpl.Stmt{
			ifP(0.95, lt(tid(), par("nv")),
				let("base", mul(tid(), par("len"))),
				let("acc", cf(0)),
				forL("dot", "k", ci(0), par("len"),
					let("idx", add(lv("base"), lv("k"))),
					let("acc", add(lv("acc"), mul(load("a", lv("idx")), load("b", lv("idx"))))),
				),
				store("out", tid(), lv("acc")),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		nv := int(env.Params["nv"].Int())
		length := int(env.Params["len"].Int())
		a, b, out := env.Bufs["a"].F32s, env.Bufs["b"].F32s, env.Bufs["out"].F32s
		for v := 0; v < nv; v++ {
			var acc float32
			for k := 0; k < length; k++ {
				acc += a[v*length+k] * b[v*length+k]
			}
			out[v] = acc
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		nv, length := 256*scale, 64
		n := nv * length
		r := newPRNG(2)
		return &Workload{
			Grid:  ceilDiv(nv, 256),
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"nv":  kpl.IntVal(int64(nv)),
				"len": kpl.IntVal(int64(length)),
			},
			BufBytes: map[string]int{"a": 4 * n, "b": 4 * n, "out": 4 * nv},
			Inputs: map[string][]byte{
				"a": devmem.EncodeF32(r.f32Slice(n, -1, 1)),
				"b": devmem.EncodeF32(r.f32Slice(n, -1, 1)),
			},
			OutBufs: []string{"out"},
		}
	},
	Iterations:        10,
	Coalescable:       true,
	CopyEachIteration: true,
})

// Reduction sums a vector: each thread accumulates a grid-stride partial and
// atomically adds it to out[0] (CUDA SDK reduction, final-stage atomic).
var Reduction = register(&Benchmark{
	Name: "reduction",
	Kernel: &kpl.Kernel{
		Name:   "reduction",
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "in", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessBroadcast},
		},
		Body: []kpl.Stmt{
			let("acc", cf(0)),
			forL("elems", "j", ci(0), eptExpr(par("n")),
				let("i", gsIndex("j")),
				ifP(0.95, lt(lv("i"), par("n")),
					let("acc", add(lv("acc"), load("in", lv("i")))),
				),
			),
			atomAdd("out", ci(0), lv("acc")),
		},
	},
	Native: func(env *kpl.Env) error {
		n := int(env.Params["n"].Int())
		in, out := env.Bufs["in"].F32s, env.Bufs["out"].F32s
		threads := env.NThreads
		// Match the interpreter's accumulation order: per-thread partials in
		// thread order, each over its grid-stride elements.
		for t := 0; t < threads; t++ {
			var acc float32
			for i := t; i < n; i += threads {
				acc += in[i]
			}
			out[0] += acc
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		n := 16384 * scale
		r := newPRNG(3)
		return &Workload{
			Grid:  4,
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"n": kpl.IntVal(int64(n)),
			},
			BufBytes: map[string]int{"in": 4 * n, "out": 4},
			Inputs: map[string][]byte{
				"in": devmem.EncodeF32(r.f32Slice(n, 0, 1)),
			},
			OutBufs: []string{"out"},
		}
	},
	Iterations:        16,
	Coalescable:       true,
	CopyEachIteration: true,
})

// Histogram counts 256-bin value frequencies with atomics (CUDA SDK
// histogram). Integer-only: one of the FP-light, lower-speedup workloads.
var Histogram = register(&Benchmark{
	Name: "histogram",
	Kernel: &kpl.Kernel{
		Name:   "histogram",
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "in", Elem: kpl.I32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "bins", Elem: kpl.I32, Access: kpl.AccessRandom},
		},
		Body: []kpl.Stmt{
			forL("elems", "j", ci(0), eptExpr(par("n")),
				let("i", gsIndex("j")),
				ifP(0.95, lt(lv("i"), par("n")),
					atomAdd("bins", andE(load("in", lv("i")), ci(255)), ci(1)),
				),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		n := int(env.Params["n"].Int())
		in, bins := env.Bufs["in"].I32s, env.Bufs["bins"].I32s
		for i := 0; i < n; i++ {
			bins[in[i]&255]++
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		n := 16384 * scale
		r := newPRNG(4)
		return &Workload{
			Grid:  8,
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"n": kpl.IntVal(int64(n)),
			},
			BufBytes: map[string]int{"in": 4 * n, "bins": 4 * 256},
			Inputs: map[string][]byte{
				"in": devmem.EncodeI32(r.i32Slice(n, 256)),
			},
			OutBufs: []string{"bins"},
		}
	},
	Iterations:        10,
	Coalescable:       true,
	CopyEachIteration: true,
})

// Transpose writes the transpose of a rows×cols matrix (CUDA SDK transpose).
// The store stream is strided — a memory-behaviour stress for the cache
// model.
var Transpose = register(&Benchmark{
	Name: "transpose",
	Kernel: &kpl.Kernel{
		Name: "transpose",
		Params: []kpl.ParamDecl{
			{Name: "rows", T: kpl.I32},
			{Name: "cols", T: kpl.I32},
		},
		Bufs: []kpl.BufDecl{
			{Name: "in", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessStrided, Stride: 256},
		},
		Body: []kpl.Stmt{
			let("n", mul(par("rows"), par("cols"))),
			ifP(0.95, lt(tid(), lv("n")),
				let("r", div(tid(), par("cols"))),
				let("c", mod(tid(), par("cols"))),
				store("out", add(mul(lv("c"), par("rows")), lv("r")), load("in", tid())),
			),
		},
	},
	Native: func(env *kpl.Env) error {
		rows := int(env.Params["rows"].Int())
		cols := int(env.Params["cols"].Int())
		in, out := env.Bufs["in"].F32s, env.Bufs["out"].F32s
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				out[c*rows+r] = in[r*cols+c]
			}
		}
		return nil
	},
	MakeWorkload: func(scale int) *Workload {
		rows, cols := 64*scale, 256
		n := rows * cols
		r := newPRNG(5)
		return &Workload{
			Grid:  ceilDiv(n, 256),
			Block: 256,
			N:     n,
			Params: map[string]kpl.Value{
				"rows": kpl.IntVal(int64(rows)),
				"cols": kpl.IntVal(int64(cols)),
			},
			BufBytes: map[string]int{"in": 4 * n, "out": 4 * n},
			Inputs: map[string][]byte{
				"in": devmem.EncodeF32(r.f32Slice(n, -10, 10)),
			},
			OutBufs: []string{"out"},
		}
	},
	Iterations:        10,
	Coalescable:       true,
	CopyEachIteration: true,
})

// sanity check at init: every registered benchmark must produce a workload
// whose buffers cover the kernel's declarations.
func init() {
	for _, b := range All() {
		w := b.MakeWorkload(1)
		for _, decl := range b.Kernel.Bufs {
			if _, ok := w.BufBytes[decl.Name]; !ok {
				panic(fmt.Sprintf("kernels: %s: workload missing buffer %q", b.Name, decl.Name))
			}
		}
	}
}
