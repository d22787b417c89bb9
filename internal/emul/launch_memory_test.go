package emul

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// The launch path binds read-only parameters as views of device memory and
// writable ones as private copies stored on success. These tests pin what
// that must not change, on both back ends and at both worker counts.

// device is what the two back ends share for these tests.
type device struct {
	name   string
	mem    *devmem.Mem
	launch func(*hostgpu.Launch) error
}

func devices(workers int) []device {
	g := hostgpu.New(arch.Quadro4000(), 1<<24)
	g.Workers = workers
	e := New(arch.HostXeon(), 1<<24)
	e.Workers = workers
	return []device{
		{fmt.Sprintf("hostgpu/workers=%d", workers), g.Mem, func(l *hostgpu.Launch) error { _, _, err := g.Launch(0, l); return err }},
		{fmt.Sprintf("emul/workers=%d", workers), e.Mem, func(l *hostgpu.Launch) error { _, _, err := e.Launch(l); return err }},
	}
}

// inOutKernel declares a read-only "in" and a writable "out" over n threads.
func inOutKernel(t *testing.T, name string, body ...kpl.Stmt) (*kpl.Kernel, *kir.Program) {
	t.Helper()
	k := &kpl.Kernel{
		Name:   name,
		Params: []kpl.ParamDecl{{Name: "n", T: kpl.I32}},
		Bufs: []kpl.BufDecl{
			{Name: "in", Elem: kpl.F32, Access: kpl.AccessSeq, ReadOnly: true},
			{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq},
		},
		Body: body,
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, prog
}

func allocF32(t *testing.T, m *devmem.Mem, vals []float32) devmem.Ptr {
	t.Helper()
	p, err := m.Alloc(4 * len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(p, 0, devmem.EncodeF32(vals)); err != nil {
		t.Fatal(err)
	}
	return p
}

func ramp(n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i + 1)
	}
	return vals
}

// TestOneAllocationBoundReadOnlyAndWritable: out[i] = 2·in[n-1-i] with both
// parameters bound to one allocation. Every thread must read the bytes the
// allocation held at launch, as when both parameters were private copies.
func TestOneAllocationBoundReadOnlyAndWritable(t *testing.T) {
	const n = 1024
	last := kpl.Sub(kpl.Sub(kpl.P("n"), kpl.CI(1)), kpl.TID())
	k, prog := inOutKernel(t, "reverseDouble",
		kpl.If(kpl.LT(kpl.TID(), kpl.P("n")),
			kpl.Store("out", kpl.TID(), kpl.Mul(kpl.Load("in", last), kpl.CF(2)))))
	native := func(env *kpl.Env) error {
		in, out := env.Bufs["in"].F32s, env.Bufs["out"].F32s
		for i := range out {
			out[i] = in[n-1-i] * 2
		}
		return nil
	}
	want := make([]float32, n)
	for i, v := range ramp(n) {
		want[n-1-i] = 2 * v
	}
	for _, workers := range []int{1, 4} {
		for _, d := range devices(workers) {
			for _, nat := range []func(*kpl.Env) error{nil, native} {
				p := allocF32(t, d.mem, ramp(n))
				err := d.launch(&hostgpu.Launch{
					Kernel: k, Prog: prog, Grid: n / 128, Block: 128,
					Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
					Bindings: map[string]devmem.Ptr{"in": p, "out": p},
					Native:   nat,
				})
				if err != nil {
					t.Fatalf("%s native=%t: %v", d.name, nat != nil, err)
				}
				got, err := d.mem.Read(p, 0, 4*n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, devmem.EncodeF32(want)) {
					t.Errorf("%s native=%t: aliased launch result differs", d.name, nat != nil)
				}
			}
		}
	}
}

// TestFailedLaunchLeavesMemoryUntouched: a kernel that stores to most of its
// output and then indexes out of range must leave every allocation as it was.
func TestFailedLaunchLeavesMemoryUntouched(t *testing.T) {
	const n = 1024
	k, prog := inOutKernel(t, "storeThenFault",
		kpl.Store("out", kpl.TID(), kpl.Add(kpl.Load("in", kpl.TID()), kpl.CF(1))),
		kpl.If(kpl.EQ(kpl.TID(), kpl.Sub(kpl.P("n"), kpl.CI(1))),
			kpl.Store("out", kpl.Add(kpl.TID(), kpl.P("n")), kpl.CF(0))))
	native := func(env *kpl.Env) error {
		in, out := env.Bufs["in"].F32s, env.Bufs["out"].F32s
		for i := 0; i < n/2; i++ {
			out[i] = in[i] + 1
		}
		return errors.New("native fault")
	}
	for _, workers := range []int{1, 4} {
		for _, d := range devices(workers) {
			for _, nat := range []func(*kpl.Env) error{nil, native} {
				in, out := allocF32(t, d.mem, ramp(n)), allocF32(t, d.mem, make([]float32, n))
				before := d.mem.Export()
				err := d.launch(&hostgpu.Launch{
					Kernel: k, Prog: prog, Grid: n / 128, Block: 128,
					Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
					Bindings: map[string]devmem.Ptr{"in": in, "out": out},
					Native:   nat,
				})
				if err == nil {
					t.Fatalf("%s native=%t: faulting kernel succeeded", d.name, nat != nil)
				}
				after := d.mem.Export()
				if len(after) != len(before) {
					t.Fatalf("%s: %d allocations after, %d before", d.name, len(after), len(before))
				}
				for i := range before {
					if after[i].Ptr != before[i].Ptr || !bytes.Equal(after[i].Data, before[i].Data) {
						t.Errorf("%s native=%t: allocation %#x changed by a failed launch", d.name, nat != nil, uint64(before[i].Ptr))
					}
				}
			}
		}
	}
}
