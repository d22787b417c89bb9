package kernels

import (
	"fmt"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
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
