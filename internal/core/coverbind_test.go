package core

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// The tests in this file pin what a launch's writable copy holds when the
// kernel overwrites a prefix of it before reading (kir.Program.Covered): the
// copy is drawn from the pool and filled from device memory only past that
// prefix, so whatever the pool slice held there must never reach a VP.

// servedSession serves a one-device farm over TCP and returns a call function
// per VP; a VP's connection opens at its first call and closes with close(vp),
// since an idle connected VP holds back its device's batch.
func servedSession(t *testing.T) (m *MultiService, call func(vp int, req any) (any, error), closeVP func(vp int)) {
	t.Helper()
	m, err := NewMultiService(DefaultOptions(), []arch.GPU{arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, m)
	t.Cleanup(func() { srv.Shutdown(2e9) })
	clients := map[int]ipc.Client{}
	call = func(vp int, req any) (any, error) {
		c, ok := clients[vp]
		if !ok {
			if c, err = ipc.Dial(srv.Addr().String(), vp); err != nil {
				t.Fatal(err)
			}
			clients[vp] = c
		}
		return c.Call(req)
	}
	closeVP = func(vp int) {
		if c, ok := clients[vp]; ok {
			c.Close()
			delete(clients, vp)
		}
	}
	t.Cleanup(func() {
		for vp := range clients {
			closeVP(vp)
		}
	})
	return m, call, closeVP
}

// vectorAddSession is one VP's vectorAdd over elems-element buffers a, b and
// out, out first holding outInit; launch runs it at n and reports its error.
type vectorAddSession struct {
	t         *testing.T
	vp        int
	call      func(vp int, req any) (any, error)
	a, b, out devmem.Ptr
	av, bv    []float32
}

func newVectorAddSession(t *testing.T, call func(int, any) (any, error), vp, elems int, seed float32, outInit []byte) *vectorAddSession {
	t.Helper()
	s := &vectorAddSession{t: t, vp: vp, call: call}
	s.av, s.bv = make([]float32, elems), make([]float32, elems)
	for i := range s.av {
		s.av[i] = seed + float32(i%613)*0.5
		s.bv[i] = seed*3 - float32(i%89)*0.125
	}
	s.a = s.alloc(devmem.EncodeF32(s.av))
	s.b = s.alloc(devmem.EncodeF32(s.bv))
	s.out = s.alloc(outInit)
	return s
}

func (s *vectorAddSession) do(req any) any {
	s.t.Helper()
	resp, err := s.call(s.vp, req)
	if err != nil {
		s.t.Fatalf("vp %d: %T: %v", s.vp, req, err)
	}
	return resp
}

func (s *vectorAddSession) alloc(data []byte) devmem.Ptr {
	s.t.Helper()
	p := s.do(ipc.MallocReq{Size: len(data)}).(ipc.MallocResp).Ptr
	s.do(ipc.H2DReq{Dst: p, Data: data})
	return p
}

func (s *vectorAddSession) launch(n int) error {
	_, err := s.call(s.vp, ipc.LaunchReq{
		Kernel: "vectorAdd", Grid: (len(s.av) + 255) / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
		Bindings: map[string]devmem.Ptr{"a": s.a, "b": s.b, "out": s.out},
	})
	return err
}

func (s *vectorAddSession) read() []byte {
	s.t.Helper()
	return s.do(ipc.D2HReq{Src: s.out, N: 4 * len(s.av)}).(ipc.D2HResp).Data
}

// want is out after a launch at n over init: a+b below n, init from n on.
func (s *vectorAddSession) want(n int, init []byte) []byte {
	sum := make([]float32, n)
	for i := range sum {
		sum[i] = s.av[i] + s.bv[i]
	}
	return append(devmem.EncodeF32(sum), init[4*n:]...)
}

// TestCoveredBindKeepsTail: vectorAdd at an n below its buffers' length
// overwrites out below n only; the bytes from n on are the ones out held,
// though the launch's copy of out was filled from device memory only there.
func TestCoveredBindKeepsTail(t *testing.T) {
	const elems = 16 << 10
	m, call, _ := servedSession(t)
	init := fillPattern(4*elems, 7)
	s := newVectorAddSession(t, call, 0, elems, 1, init)
	for _, n := range []int{elems / 2, elems/2 + 3, 1, elems - 1} {
		if err := s.launch(n); err != nil {
			t.Fatal(err)
		}
		got := s.read()
		if want := s.want(n, init); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: out differs from a+b below n and its old bytes from n on", n)
		}
		init = got
	}
	if got := m.HostSnapshot().CounterValue("core.exec.bind_uncopied_bytes"); got <= 0 {
		t.Fatalf("core.exec.bind_uncopied_bytes = %d: no bind skipped its prefix", got)
	}
}

// TestCoveredBindFaultChangesNothing: a launch whose n runs past its buffers
// faults in the native after part of out's copy was computed, with the prefix
// of the copy never filled; device memory keeps every byte it had.
func TestCoveredBindFaultChangesNothing(t *testing.T) {
	const elems = 4 << 10
	_, call, _ := servedSession(t)
	init := fillPattern(4*elems, 11)
	s := newVectorAddSession(t, call, 0, elems, 2, init)
	if err := s.launch(elems + 1); err == nil {
		t.Fatal("a launch past its buffers succeeded")
	}
	if !bytes.Equal(s.read(), init) {
		t.Fatal("a faulting launch changed out")
	}
	if err := s.launch(elems); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.read(), s.want(elems, init)) {
		t.Fatal("the launch after a fault computed the wrong bytes")
	}
}

// TestCoveredBindNeverLeaksAcrossVPs: VP 0's launches commit copies that
// displace backings holding its results into the pool, and VP 1's launch of
// the same size then draws one for its copy of out. What the copy held below
// the covered prefix is overwritten before anything reads it: VP 1's out
// holds its own sum and its own old bytes, and none of VP 0's.
func TestCoveredBindNeverLeaksAcrossVPs(t *testing.T) {
	const elems = 16 << 10
	_, call, closeVP := servedSession(t)
	s0 := newVectorAddSession(t, call, 0, elems, 100, fillPattern(4*elems, 1))
	var theirs []byte
	for i := 0; i < 3; i++ {
		if err := s0.launch(elems); err != nil {
			t.Fatal(err)
		}
		theirs = s0.read()
	}
	closeVP(0)
	init := fillPattern(4*elems, 29)
	s1 := newVectorAddSession(t, call, 1, elems, -50, init)
	for _, n := range []int{elems, elems / 3} {
		if err := s1.launch(n); err != nil {
			t.Fatal(err)
		}
		got := s1.read()
		if !bytes.Equal(got, s1.want(n, init)) {
			t.Fatalf("n=%d: vp 1's out differs from its own sum and bytes", n)
		}
		for i := 0; i+4 <= len(got); i += 4 {
			if bytes.Equal(got[i:i+4], theirs[i:i+4]) {
				t.Fatalf("n=%d: vp 1's out[%d] holds vp 0's result", n, i/4)
			}
		}
		init = got
	}
}

// TestCoveredBindMatchesCopies runs every registry application at scales 1
// and 2 served over TCP, twice in a row, with each writable buffer the launch
// covers first holding a poison pattern, and compares every writable buffer's
// D2H with what the kernel computes over a full copy of the same bytes — what
// a bind that copies everything in gives.
func TestCoveredBindMatchesCopies(t *testing.T) {
	m, call, _ := servedSession(t)
	do := func(req any) any {
		t.Helper()
		resp, err := call(0, req)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		return resp
	}
	for _, b := range kernels.All() {
		for scale := 1; scale <= 2; scale++ {
			w := b.MakeWorkload(scale)
			ref, err := kernels.BuildEnv(b, w)
			if err != nil {
				t.Fatal(err)
			}
			ptrs := map[string]devmem.Ptr{}
			for i, decl := range b.Kernel.Bufs {
				size := w.BufBytes[decl.Name]
				data, ok := w.Inputs[decl.Name]
				if !ok {
					data = make([]byte, size)
				}
				if b.Prog.Covered(i, kir.Launch{NThreads: w.Threads(), Params: w.Params}) > 0 {
					data = fillPattern(size, 3*i+scale)
					ref.Bufs[decl.Name] = devmem.BufferFromBytes(decl.Elem, data)
				}
				ptrs[decl.Name] = do(ipc.MallocReq{Size: size}).(ipc.MallocResp).Ptr
				do(ipc.H2DReq{Dst: ptrs[decl.Name], Data: data})
			}
			l := b.NewLaunch(w)
			for i := 0; i < 2; i++ {
				do(ipc.LaunchReq{Kernel: b.Name, Grid: w.Grid, Block: w.Block,
					SharedMem: w.SharedMemPerBlock, Regs: w.RegsPerThread,
					Params: w.Params, Bindings: ptrs})
				if err := l.Run("ref", ref, nil, 1); err != nil {
					t.Fatalf("%s scale %d: reference run: %v", b.Name, scale, err)
				}
			}
			for _, decl := range b.Kernel.Bufs {
				if decl.ReadOnly {
					continue
				}
				size := w.BufBytes[decl.Name]
				want := make([]byte, size)
				devmem.BufferToBytes(ref.Bufs[decl.Name], want)
				if got := do(ipc.D2HReq{Src: ptrs[decl.Name], N: size}).(ipc.D2HResp).Data; !bytes.Equal(got, want) {
					t.Errorf("%s scale %d: %s differs from a copying bind's", b.Name, scale, decl.Name)
				}
			}
			for _, p := range ptrs {
				do(ipc.FreeReq{Ptr: p})
			}
		}
	}
	if got := m.HostSnapshot().CounterValue("core.exec.bind_uncopied_bytes"); got <= 0 {
		t.Fatalf("core.exec.bind_uncopied_bytes = %d: no bind skipped its prefix", got)
	}
}
