package kernels

import (
	"fmt"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/profile"
)

// BuildEnv materializes a workload's buffers into an execution environment
// for b.Kernel: every declared buffer is allocated at the workload's size and
// seeded with the workload's input bytes. Parameters are shared with the
// workload, not copied.
func BuildEnv(b *Benchmark, w *Workload) (*kpl.Env, error) {
	env := &kpl.Env{NThreads: w.Threads(), Params: w.Params, Bufs: map[string]*kpl.Buffer{}}
	for _, decl := range b.Kernel.Bufs {
		size, ok := w.BufBytes[decl.Name]
		if !ok {
			return nil, fmt.Errorf("%s: workload missing buffer %q", b.Name, decl.Name)
		}
		raw := make([]byte, size)
		if in, ok := w.Inputs[decl.Name]; ok {
			copy(raw, in)
		}
		env.Bufs[decl.Name] = devmem.BufferFromBytes(decl.Elem, raw)
	}
	return env, nil
}

// SampleDyn measures a data-dependent kernel's λ statistics on a thread
// sample over the workload's inputs, materialized outside any device; kernels
// whose σ is static yield nil. λ is a property of (kernel, workload), not of
// the VP or device, so a fleet samples once per benchmark.
func (b *Benchmark) SampleDyn(w *Workload) (*kpl.Stats, error) {
	if !b.Prog.NeedsDynamicProfile() {
		return nil, nil
	}
	env, err := BuildEnv(b, w)
	if err != nil {
		return nil, err
	}
	return hostgpu.SampleDyn(b.Kernel, b.Prog, env, nil)
}

// Measure provisions the workload on dev, prices its launch there and runs it
// once on stream 0, returning the launch, its pricing and its profile: the
// host run a target estimate is built from (hostgpu.Launch.Estimate). The
// launch carries the workload's λ (SampleDyn), so a data-dependent kernel is
// priced, like any other, from what the workload is rather than from a
// sample of device memory.
func (b *Benchmark) Measure(dev *hostgpu.GPU, w *Workload) (*hostgpu.Launch, *hostgpu.Priced, *profile.Profile, error) {
	l := b.NewLaunch(w)
	var err error
	if l.Dyn, err = b.SampleDyn(w); err != nil {
		return nil, nil, nil, err
	}
	l.Bindings = make(map[string]devmem.Ptr, len(b.Kernel.Bufs))
	for _, decl := range b.Kernel.Bufs {
		ptr, err := dev.Mem.Alloc(w.BufBytes[decl.Name])
		if err != nil {
			return nil, nil, nil, err
		}
		l.Bindings[decl.Name] = ptr
		if in, ok := w.Inputs[decl.Name]; ok {
			if err := dev.Mem.Write(ptr, 0, in); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	var p *hostgpu.Priced
	prof, _, err := dev.LaunchPriced(0, l, &p)
	return l, p, prof, err
}
