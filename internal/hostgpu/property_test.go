package hostgpu

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/devmem"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/trace"
)

// propKernel is a trivial kernel for scheduling property tests.
func propKernel(t testing.TB) (*kpl.Kernel, *kir.Program) {
	t.Helper()
	k := &kpl.Kernel{
		Name: "propNop",
		Bufs: []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Store("out", kpl.Mod(kpl.TID(), kpl.CI(16)), kpl.CF(1)),
		},
	}
	prog, err := kir.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, prog
}

// Property: for any random sequence of copy/kernel operations across random
// streams, the device schedule never overlaps two operations on the same
// engine, keeps every stream internally ordered, and (with in-order issue)
// never starts an op before a previously submitted op started.
func TestScheduleInvariantsProperty(t *testing.T) {
	k, prog := propKernel(t)
	f := func(ops []uint16, inOrder, serialize bool) bool {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		g := New(arch.Quadro4000(), 1<<26)
		g.Mode = ExecTimingOnly
		g.InOrderIssue = inOrder
		g.Serialize = serialize
		g.Trace = trace.New()
		ptr, err := g.Mem.Alloc(1 << 16)
		if err != nil {
			return false
		}
		var lastStart float64
		for _, op := range ops {
			stream := int(op % 5)
			var iv Interval
			switch (op / 5) % 3 {
			case 0:
				iv, err = g.CopyH2D(stream, ptr, 0, make([]byte, int(op)%(1<<14)+1))
			case 1:
				_, iv, err = g.CopyD2H(stream, ptr, 0, int(op)%(1<<14)+1, nil)
			default:
				_, iv, err = g.Launch(stream, &Launch{
					Kernel: k, Prog: prog,
					Grid: int(op)%7 + 1, Block: 64,
					Bindings: map[string]devmem.Ptr{"out": ptr},
				})
			}
			if err != nil {
				return false
			}
			if inOrder && iv.Start < lastStart-1e-12 {
				return false
			}
			lastStart = iv.Start
		}
		// Per-engine non-overlap and per-stream ordering from the trace.
		engineEnd := map[string]float64{}
		streamEnd := map[int]float64{}
		// Records are globally sorted by start; engines and streams must
		// each be non-overlapping / ordered within themselves.
		for _, r := range g.Trace.Records() {
			if r.Start < engineEnd[r.Engine]-1e-12 {
				return false
			}
			engineEnd[r.Engine] = r.End
			if r.End < streamEnd[r.Stream]-1e-12 {
				return false
			}
			streamEnd[r.Stream] = r.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: KernelTiming is monotone in per-thread work and never returns
// NaN/negative durations.
func TestKernelTimingMonotoneProperty(t *testing.T) {
	g := arch.Quadro4000()
	f := func(grid, block uint8, work uint16) bool {
		shape := profile.LaunchShape{Grid: int(grid)%256 + 1, Block: int(block)%512 + 1}
		var lo, hi arch.ClassVec
		lo[arch.FP32] = float64(work%1000 + 1)
		hi[arch.FP32] = lo[arch.FP32] * 2
		tLo := KernelTiming(&g, shape, lo, nil)
		tHi := KernelTiming(&g, shape, hi, nil)
		if !(tLo.Seconds > 0 && tHi.Seconds > 0) {
			return false
		}
		return tHi.Seconds >= tLo.Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding access streams never reduces predicted time (stalls are
// non-negative).
func TestStallsNonNegativeProperty(t *testing.T) {
	g := arch.Quadro4000()
	f := func(accesses uint32, elems uint16) bool {
		shape := profile.LaunchShape{Grid: 16, Block: 256}
		var per arch.ClassVec
		per[arch.Int] = 100
		base := KernelTiming(&g, shape, per, nil)
		with := KernelTiming(&g, shape, per, []cachemodel.Access{{
			Pattern:  kpl.AccessSeq,
			Accesses: float64(accesses % 1e6),
			Elems:    int(elems) + 1,
			ElemSize: 4,
		}})
		return with.Seconds >= base.Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
