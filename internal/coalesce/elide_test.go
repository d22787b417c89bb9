package coalesce

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/sched"
)

// again returns fresh jobs for the members' launches, as a guest relaunching
// them would submit.
func again(members []*sched.Job) []*sched.Job {
	out := make([]*sched.Job, len(members))
	for i, m := range members {
		out[i] = sched.NewKernel(m.VP, m.Stream, m.Launch)
		out[i].Coalescable = true
	}
	return out
}

// TestMergedLaunchElision: a merged launch skips the functional half of each
// piece that repeats its last run over unchanged memory (hostgpu.GPU.Elide),
// runs the others, and leaves the bytes and the profiles of a run of every
// piece.
func TestMergedLaunchElision(t *testing.T) {
	const k, n = 4, 512
	for _, workers := range []int{1, 4} {
		g := hostgpu.New(arch.Quadro4000(), 1<<24)
		g.Workers = workers
		members := vecAddGroup(t, g, k, n, true)
		first := Merge(g, members)
		if err := first.Run(g); err != nil {
			t.Fatal(err)
		}
		after := g.Mem.Export()

		second := Merge(g, again(members))
		if err := second.Run(g); err != nil {
			t.Fatal(err)
		}
		if g.Elided() != k {
			t.Fatalf("workers %d: a repeated merged launch elided %d of %d pieces", workers, g.Elided(), k)
		}
		if !reflect.DeepEqual(g.Mem.Export(), after) {
			t.Errorf("workers %d: an elided merged launch changed device memory", workers)
		}
		if !reflect.DeepEqual(*second.Profile, *first.Profile) {
			t.Errorf("workers %d: the elided merged launch's profile differs", workers)
		}

		// One byte of piece 2's input changes: piece 2 runs, the others do not.
		l2 := members[2].Launch
		if err := g.Mem.Write(l2.Bindings["b"], 0, []byte{0, 0, 0x80, 0x3F}); err != nil { // b[0] = 1
			t.Fatal(err)
		}
		if err := Merge(g, again(members)).Run(g); err != nil {
			t.Fatal(err)
		}
		if g.Elided() != 2*k-1 {
			t.Errorf("workers %d: after one input changed, elided %d pieces in total, want %d", workers, g.Elided(), 2*k-1)
		}
		out, _ := g.Mem.Read(l2.Bindings["out"], 0, 4*n)
		a, _ := g.Mem.Read(l2.Bindings["a"], 0, 4*n)
		if got, want := devmem.DecodeF32(out)[0], devmem.DecodeF32(a)[0]+1; got != want {
			t.Errorf("workers %d: the changed piece's out[0] = %v, want %v", workers, got, want)
		}
	}
}

// TestMergedLaunchSharedWritableNotElided: when two members write one
// allocation the last one's result stays, so no piece may be skipped on the
// strength of a record: member 1's own repeated launch, merged behind member
// 0 writing the same allocation, must still run and win.
func TestMergedLaunchSharedWritableNotElided(t *testing.T) {
	const n = 512
	g := hostgpu.New(arch.Quadro4000(), 1<<24)
	m := vecAddGroup(t, g, 2, n, true)
	m[0].Launch.Bindings["out"] = m[1].Launch.Bindings["out"]
	// Member 1 alone: its run is recorded under the shared allocation.
	if _, _, err := g.Launch(0, m[1].Launch); err != nil {
		t.Fatal(err)
	}
	want, _ := g.Mem.Read(m[1].Launch.Bindings["out"], 0, 4*n)
	if err := Merge(g, m).Run(g); err != nil {
		t.Fatal(err)
	}
	if g.Elided() != 0 {
		t.Errorf("elided %d pieces of a group sharing a writable allocation", g.Elided())
	}
	if got, _ := g.Mem.Read(m[1].Launch.Bindings["out"], 0, 4*n); !reflect.DeepEqual(got, want) {
		t.Error("the shared allocation does not hold the last member's result")
	}
}
