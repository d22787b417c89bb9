// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from the simulated substrates: Table 1 and
// Figs. 9–13. Each experiment returns a typed result whose String method
// prints the same rows/series the paper reports, and exposes the raw numbers
// for the test suite's shape assertions.
package experiments

import (
	"fmt"

	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/sched"
)

// IPCCost models the VP↔host transport of the ΣVP prototype (shared-memory
// IPC): a fixed per-request latency plus marshaling bandwidth. It is the
// overhead that makes ΣVP 3.32× slower than native in Table 1.
type IPCCost struct {
	LatencySec float64
	BWGBps     float64
}

// DefaultIPC returns the shared-memory transport model.
func DefaultIPC() IPCCost {
	return IPCCost{LatencySec: 55e-6, BWGBps: 1.0}
}

// Transfer returns the cost of one request carrying n payload bytes. The
// payload crosses the transport twice — the guest driver marshals it out of
// VP memory and the host service unmarshals it before the DMA — hence the
// factor of two.
func (c IPCCost) Transfer(n int) float64 {
	return c.LatencySec + 2*float64(n)/(c.BWGBps*1e9)
}

// provisioned is a benchmark workload materialized for one VP: its launch
// and the pointers of its copy legs. On a bare device the pointers are device
// pointers; on a farm they are the VP's guest pointers (Service.AllocVP),
// which travel with the VP on migration — see resolved.
type provisioned struct {
	bench  *kernels.Benchmark
	launch *hostgpu.Launch
	// inputs in device order, for per-iteration re-copies.
	inPtrs  []devmem.Ptr
	inData  [][]byte
	outPtrs []devmem.Ptr
	outLens []int
}

// provision reserves a workload's buffers through alloc, which receives each
// buffer's size and its input bytes (nil for a buffer the workload does not
// fill). It does not advance the simulated clock (setup happens before the
// measurement window).
func provision(bench *kernels.Benchmark, w *kernels.Workload, alloc func(size int, input []byte) (devmem.Ptr, error)) (*provisioned, error) {
	p := &provisioned{bench: bench, launch: bench.NewLaunch(w)}
	p.launch.Bindings = map[string]devmem.Ptr{}
	for _, decl := range bench.Kernel.Bufs {
		size, ok := w.BufBytes[decl.Name]
		if !ok {
			return nil, fmt.Errorf("experiments: %s: workload missing buffer %q", bench.Name, decl.Name)
		}
		in, isInput := w.Inputs[decl.Name]
		ptr, err := alloc(size, in)
		if err != nil {
			return nil, err
		}
		p.launch.Bindings[decl.Name] = ptr
		if isInput {
			p.inPtrs = append(p.inPtrs, ptr)
			p.inData = append(p.inData, in)
		}
	}
	for _, name := range w.OutBufs {
		p.outPtrs = append(p.outPtrs, p.launch.Bindings[name])
		p.outLens = append(p.outLens, w.BufBytes[name])
	}
	return p, nil
}

// provisionOn allocates and fills a workload's buffers on a bare host GPU.
func provisionOn(g *hostgpu.GPU, bench *kernels.Benchmark, w *kernels.Workload) (*provisioned, error) {
	return provision(bench, w, func(size int, input []byte) (devmem.Ptr, error) {
		ptr, err := g.Mem.Alloc(size)
		if err != nil || input == nil {
			return ptr, err
		}
		return ptr, g.Mem.Write(ptr, 0, input)
	})
}

// resolved returns the workload with every pointer translated by at — a farm
// VP's guest pointers to where its current device holds them — or at's first
// refusal.
func (p *provisioned) resolved(at func(devmem.Ptr) (devmem.Ptr, error)) (*provisioned, error) {
	var err error
	tr := func(ptr devmem.Ptr) devmem.Ptr {
		if err == nil {
			ptr, err = at(ptr)
		}
		return ptr
	}
	r := *p
	l := *p.launch
	l.Bindings = make(map[string]devmem.Ptr, len(p.launch.Bindings))
	for name, ptr := range p.launch.Bindings {
		l.Bindings[name] = tr(ptr)
	}
	r.launch = &l
	r.inPtrs = make([]devmem.Ptr, len(p.inPtrs))
	for i, ptr := range p.inPtrs {
		r.inPtrs[i] = tr(ptr)
	}
	r.outPtrs = make([]devmem.Ptr, len(p.outPtrs))
	for i, ptr := range p.outPtrs {
		r.outPtrs[i] = tr(ptr)
	}
	return &r, err
}

// iterationJobs builds the job burst of application iteration it: copy-once
// applications only transfer on their first and last iterations.
func (p *provisioned) iterationJobs(vpID, stream, it int) []*sched.Job {
	return p.phaseJobs(vpID, stream,
		p.bench.CopyEachIteration || it == 0,
		p.bench.CopyEachIteration || it == p.bench.Iterations-1)
}

// phaseJobs builds one iteration's copy-in → kernel → copy-out burst on the
// given device stream, optionally without the copy legs; with copyOut the
// D2H jobs are the last len(outPtrs) of the burst.
func (p *provisioned) phaseJobs(vpID, stream int, copyIn, copyOut bool) []*sched.Job {
	var jobs []*sched.Job
	if copyIn {
		for i, ptr := range p.inPtrs {
			jobs = append(jobs, sched.NewH2D(vpID, stream, ptr, 0, p.inData[i]))
		}
	}
	kj := sched.NewKernel(vpID, stream, p.launch)
	kj.Coalescable = p.bench.Coalescable
	jobs = append(jobs, kj)
	if copyOut {
		for i, ptr := range p.outPtrs {
			jobs = append(jobs, sched.NewD2H(vpID, stream, ptr, 0, p.outLens[i]))
		}
	}
	return jobs
}

// opsPerIteration returns the GPU request count of one iteration (for IPC
// cost accounting).
func (p *provisioned) opsPerIteration() int {
	return len(p.inPtrs) + 1 + len(p.outPtrs)
}

// iterationBytes returns the payload bytes one iteration moves over IPC.
func (p *provisioned) iterationBytes() int {
	n := 0
	for _, d := range p.inData {
		n += len(d)
	}
	for _, l := range p.outLens {
		n += l
	}
	return n
}

// dispatch runs a batch through the Re-scheduler against the device,
// finishing every job, and returns the first error.
func dispatch(g *hostgpu.GPU, batch []*sched.Job, policy sched.Policy, coalesceOn bool) error {
	if coalesceOn {
		batch = coalesce.Apply(g, batch)
	}
	var first error
	for _, j := range sched.PlanRecorded(batch, policy, g.Metrics) {
		err := j.Run(g)
		if !j.Done() {
			j.Finish(err)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// busyKernel builds a synthetic kernel whose per-thread cost is an
// m-iteration FP32 chain — the tunable-length kernel of the Fig. 9 sweeps.
func busyKernel() (*kpl.Kernel, error) {
	k := &kpl.Kernel{
		Name:   "busywork",
		Params: []kpl.ParamDecl{{Name: "m", T: kpl.I32}},
		Bufs:   []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessSeq}},
		Body: []kpl.Stmt{
			kpl.Let("acc", kpl.CF(1)),
			kpl.For("work", "j", kpl.CI(0), kpl.P("m"),
				kpl.Let("acc", kpl.Add(kpl.Mul(kpl.V("acc"), kpl.CF(1.0000001)), kpl.CF(1))),
			),
			kpl.Store("out", kpl.Mod(kpl.TID(), kpl.CI(1024)), kpl.V("acc")),
		},
	}
	return k, k.Validate()
}
