package emul

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
)

// TestEmulRunsEveryLaunch: the emulated device takes a launch's σ from its own
// run, so it runs every launch, even one the host GPU model elides
// (hostgpu.GPU.Elide) because it repeats a write-only launch over unchanged
// memory. Two identical interpreted launches both count their dynamic
// statistics, and two with a native both call it.
func TestEmulRunsEveryLaunch(t *testing.T) {
	k := &kpl.Kernel{
		Name: "escape",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.I32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("c", kpl.CI(0)),
			kpl.For("esc", "j", kpl.CI(0), kpl.CI(32),
				kpl.If(kpl.GE(kpl.V("j"), kpl.CI(7)), kpl.Break()),
				kpl.Let("c", kpl.Add(kpl.V("c"), kpl.CI(1))),
			),
			kpl.Store("out", kpl.TID(), kpl.V("c")),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.WriteOnly() {
		t.Fatal("the kernel is not write-only: the test would show nothing")
	}
	d := New(arch.HostXeon(), 1<<24)
	ptr, err := d.Mem.Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	l := &hostgpu.Launch{Kernel: k, Prog: prog, Grid: 2, Block: 32, Bindings: map[string]devmem.Ptr{"out": ptr}}
	var sigma [2]float64
	for i := range sigma {
		p, _, err := d.Launch(l)
		if err != nil {
			t.Fatal(err)
		}
		sigma[i] = p.Sigma.Sum()
	}
	if sigma[0] <= 0 || sigma[1] != sigma[0] {
		t.Errorf("interpreted launches: σ %v then %v, want two equal positive sums", sigma[0], sigma[1])
	}

	calls := 0
	l.Native = func(env *kpl.Env) error {
		calls++
		return k.ExecAll(env, nil)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := d.Launch(l); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("two identical launches called the native %d times, want 2", calls)
	}

	// The same pair on the host GPU model runs the native once.
	g := hostgpu.New(arch.Quadro4000(), 1<<24)
	if ptr, err = g.Mem.Alloc(4 * 64); err != nil {
		t.Fatal(err)
	}
	l.Bindings = map[string]devmem.Ptr{"out": ptr}
	calls = 0
	for i := 0; i < 2; i++ {
		if _, _, err := g.Launch(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 || g.Elided() != 1 {
		t.Errorf("host GPU model: %d native calls, %d elided, want 1 and 1", calls, g.Elided())
	}
}
