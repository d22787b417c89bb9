package kpl

import (
	"math/rand"
	"reflect"
	"testing"
)

// parMixKernel exercises loops, branches, shared read-only input, a private
// per-thread output, and a small buffer that many threads (across blocks)
// write — the case where merge order decides the result.
func parMixKernel() *Kernel {
	return &Kernel{
		Name: "parMix",
		Bufs: []BufDecl{
			{Name: "in", Elem: F32, Access: AccessSeq, ReadOnly: true},
			{Name: "out", Elem: F32, Access: AccessSeq},
			{Name: "small", Elem: I32, Access: AccessSeq},
		},
		Body: []Stmt{
			Let("x", Load("in", TID())),
			Let("acc", CF(0)),
			For("L", "i", CI(0), Add(Mod(TID(), CI(7)), CI(1)),
				Let("acc", Add(V("acc"), Mul(V("x"), ToF32(V("i"))))),
			),
			Store("out", TID(), V("acc")),
			If(GT(Mod(TID(), CI(3)), CI(0)),
				Store("small", Mod(TID(), CI(13)), ToI32(TID())),
			),
		},
	}
}

func parMixEnv(rng *rand.Rand, n int) *Env {
	in := NewBuffer(F32, n)
	for i := range in.F32s {
		in.F32s[i] = rng.Float32()*16 - 8
	}
	return NewEnv(n).
		Bind("in", in).
		Bind("out", NewBuffer(F32, n)).
		Bind("small", NewBuffer(I32, 13))
}

// cloneEnv deep-copies the buffers so serial and parallel runs start from
// identical state.
func cloneEnv(env *Env) *Env {
	c := &Env{NThreads: env.NThreads, Params: env.Params, Bufs: map[string]*Buffer{}}
	for name, b := range env.Bufs {
		c.Bufs[name] = cloneBuffer(b)
	}
	return c
}

func sameBuffers(t *testing.T, tag string, a, b map[string]*Buffer) {
	t.Helper()
	for name, ab := range a {
		bb := b[name]
		if !reflect.DeepEqual(ab.F32s, bb.F32s) || !reflect.DeepEqual(ab.F64s, bb.F64s) ||
			!reflect.DeepEqual(ab.I32s, bb.I32s) {
			t.Fatalf("%s: buffer %q differs between serial and parallel", tag, name)
		}
	}
}

// TestExecBlocksMatchesSerial is the core determinism property: for random
// launch geometries and worker counts, ExecBlocks produces bit-identical
// buffers and dynamic statistics to ExecAll.
func TestExecBlocksMatchesSerial(t *testing.T) {
	k := parMixKernel()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	workerChoices := []int{1, 2, 3, 4, 7, 8, 16, 0}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(2000) + 1
		blockSize := rng.Intn(512) + 1
		workers := workerChoices[rng.Intn(len(workerChoices))]

		base := parMixEnv(rng, n)
		serialEnv, parEnv := cloneEnv(base), cloneEnv(base)
		serialSt, parSt := NewStats(), NewStats()

		if err := k.ExecAll(serialEnv, serialSt); err != nil {
			t.Fatalf("serial n=%d: %v", n, err)
		}
		if err := k.ExecBlocks(parEnv, parSt, blockSize, workers); err != nil {
			t.Fatalf("parallel n=%d block=%d workers=%d: %v", n, blockSize, workers, err)
		}

		tag := "trial"
		sameBuffers(t, tag, serialEnv.Bufs, parEnv.Bufs)
		if !reflect.DeepEqual(serialSt, parSt) {
			t.Fatalf("n=%d block=%d workers=%d: stats differ\nserial:   %+v\nparallel: %+v",
				n, blockSize, workers, serialSt, parSt)
		}
	}
}

// TestExecBlocksNilStats covers the hostgpu functional path, which does not
// collect statistics.
func TestExecBlocksNilStats(t *testing.T) {
	k := parMixKernel()
	rng := rand.New(rand.NewSource(3))
	base := parMixEnv(rng, 777)
	serialEnv, parEnv := cloneEnv(base), cloneEnv(base)
	if err := k.ExecAll(serialEnv, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.ExecBlocks(parEnv, nil, 64, 8); err != nil {
		t.Fatal(err)
	}
	sameBuffers(t, "nil-stats", serialEnv.Bufs, parEnv.Bufs)
}

// TestExecBlocksAtomicsFallback: kernels with atomic read-modify-writes must
// run serially (a parallel fold would reorder the float accumulation) and
// still match ExecAll exactly.
func TestExecBlocksAtomicsFallback(t *testing.T) {
	k := &Kernel{
		Name: "parHist",
		Bufs: []BufDecl{{Name: "h", Elem: F32, Access: AccessStrided}},
		Body: []Stmt{
			AtomicAdd("h", Mod(TID(), CI(8)), Add(CF(1), Div(ToF32(TID()), CF(1024)))),
		},
	}
	if p, err := k.Compiled(); err != nil || !p.atomics {
		t.Fatalf("Compiled = %v: want a program marked atomic", err)
	}
	const n = 1000
	serialEnv := NewEnv(n).Bind("h", NewBuffer(F32, 8))
	parEnv := NewEnv(n).Bind("h", NewBuffer(F32, 8))
	serialSt, parSt := NewStats(), NewStats()
	if err := k.ExecAll(serialEnv, serialSt); err != nil {
		t.Fatal(err)
	}
	if err := k.ExecBlocks(parEnv, parSt, 128, 8); err != nil {
		t.Fatal(err)
	}
	sameBuffers(t, "atomics", serialEnv.Bufs, parEnv.Bufs)
	if !reflect.DeepEqual(serialSt, parSt) {
		t.Fatalf("stats differ\nserial:   %+v\nparallel: %+v", serialSt, parSt)
	}
}

// TestExecBlocksErrorMatchesSerial: a launch that faults is, on any worker
// count, the serial interpreter's run up to the fault — the same error,
// the buffers as the threads below the failing one left them, and their
// statistics.
func TestExecBlocksErrorMatchesSerial(t *testing.T) {
	k := &Kernel{
		Name: "parOOB",
		Bufs: []BufDecl{{Name: "out", Elem: F32, Access: AccessSeq}},
		Body: []Stmt{
			// Threads >= 500 store out of range.
			Store("out", TID(), CF(1)),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	serialEnv := NewEnv(n).Bind("out", NewBuffer(F32, 500))
	serialSt := NewStats()
	serialErr := k.InterpretAll(serialEnv, serialSt)
	if serialErr == nil || serialSt.Threads != 500 || serialEnv.Bufs["out"].F32s[499] != 1 {
		t.Fatalf("serial run: error %v, %d threads", serialErr, serialSt.Threads)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		parEnv := NewEnv(n).Bind("out", NewBuffer(F32, 500))
		parSt := NewStats()
		parErr := p.execBlocks(parEnv, parSt, 100, workers)
		if parErr == nil || parErr.Error() != serialErr.Error() {
			t.Fatalf("%d workers: error %v, serial %v", workers, parErr, serialErr)
		}
		sameBuffers(t, "compiled", serialEnv.Bufs, parEnv.Bufs)
		if !reflect.DeepEqual(serialSt, parSt) {
			t.Fatalf("%d workers: stats differ\nserial:   %+v\nparallel: %+v", workers, serialSt, parSt)
		}
	}
}

// TestBlockSpans: spans partition [0, n) contiguously with whole blocks.
func TestBlockSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(5000) + 1
		blockSize := rng.Intn(300) + 1
		if blockSize > n {
			blockSize = n
		}
		nBlocks := (n + blockSize - 1) / blockSize
		workers := rng.Intn(nBlocks) + 1
		spans := blockSpans(n, blockSize, nBlocks, workers)
		prev := 0
		for w, s := range spans {
			if s.lo != prev {
				t.Fatalf("n=%d block=%d workers=%d: span %d starts at %d, want %d", n, blockSize, workers, w, s.lo, prev)
			}
			if s.lo != n && s.lo%blockSize != 0 {
				t.Fatalf("span %d does not start on a block boundary: %d", w, s.lo)
			}
			prev = s.hi
		}
		if prev != n {
			t.Fatalf("n=%d block=%d workers=%d: spans end at %d, want %d", n, blockSize, workers, prev, n)
		}
	}
}
