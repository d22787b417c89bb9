// Coalescing: the anatomy of Kernel Coalescing (paper Figs. 5–6). Four VPs
// each hold their own vectorAdd input chunks in device memory; the Kernel
// Match stage groups the four identical launches, the memory chunks are
// merged into contiguous regions by device-to-device copies, ONE kernel
// instance processes the merged data, and the results scatter back to each
// VP's buffers — functionally identical to four separate launches, but with
// one launch overhead and four times the concurrent threads.
//
// That is what the simulated device does and what the timeline below shows.
// The host simulating it reserves the regions without filling them, prices
// the copies without making them, and runs each VP's kernel on the VP's own
// buffers (DESIGN.md §5).
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/sched"
	"repro/internal/trace"
)

const (
	nVPs  = 4
	elems = 2048
)

func provision(g *hostgpu.GPU, vpID int) *sched.Job {
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		log.Fatal(err)
	}
	alloc := func(vals []float32) devmem.Ptr {
		ptr, err := g.Mem.Alloc(4 * elems)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.Mem.Write(ptr, 0, devmem.EncodeF32(vals)); err != nil {
			log.Fatal(err)
		}
		return ptr
	}
	a := make([]float32, elems)
	b := make([]float32, elems)
	for i := range a {
		a[i] = float32(vpID*10000 + i)
		b[i] = float32(2 * i)
	}
	l := &hostgpu.Launch{
		Kernel: bench.Kernel, Prog: bench.Prog,
		Grid: 1, Block: 512, // deliberately undersubscribed: 1 block per VP
		Params:   map[string]kpl.Value{"n": kpl.IntVal(elems)},
		Bindings: map[string]devmem.Ptr{"a": alloc(a), "b": alloc(b), "out": alloc(make([]float32, elems))},
		Native:   bench.Native,
	}
	j := sched.NewKernel(vpID, vpID, l)
	j.Coalescable = true
	return j
}

func main() {
	g := hostgpu.New(arch.Quadro4000(), 1<<28)
	g.Trace = trace.New()

	jobs := make([]*sched.Job, nVPs)
	for vpID := range jobs {
		jobs[vpID] = provision(g, vpID)
	}

	// Kernel Match: all four launches carry the same kernel signature,
	// shape, and parameters.
	key := coalesce.Key(jobs[0].Launch)
	for _, j := range jobs[1:] {
		if coalesce.Key(j.Launch) != key {
			log.Fatal("launches do not match")
		}
	}
	fmt.Printf("Kernel Match: 4 identical vectorAdd launches (key %#x)\n", key)

	// Merge and execute: gather D2D copies → one kernel → scatter on the
	// simulated clock; on the host, the four kernels in place.
	merged := coalesce.Merge(g, jobs)
	if err := merged.Run(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged launch: grid = 4×1 blocks, σ = %.0f instructions, %.3f ms\n",
		merged.Profile.Sigma.Sum(), merged.Interval.Duration()*1e3)

	// Every VP's results are correct in its own buffers.
	for vpID, j := range jobs {
		if err := j.Wait(); err != nil {
			log.Fatal(err)
		}
		raw, err := g.Mem.Read(j.Launch.Bindings["out"], 0, 4*elems)
		if err != nil {
			log.Fatal(err)
		}
		out := devmem.DecodeF32(raw)
		for i := range out {
			want := float32(vpID*10000+i) + float32(2*i)
			if out[i] != want {
				log.Fatalf("vp%d out[%d] = %v, want %v", vpID, i, out[i], want)
			}
		}
		fmt.Printf("  vp%d: %d results verified (share: %.0f instructions)\n",
			vpID, elems, j.Profile.Sigma.Sum())
	}

	fmt.Println("\nDevice timeline (gather D2D → merged kernel → scatter D2D):")
	fmt.Print(g.Trace.Gantt(90))
}
