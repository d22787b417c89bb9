package core

import (
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/vp"
)

// WrapApp returns an application that unregisters its VP from the batching
// logic the moment it finishes. Without this, a VP that completes early
// would count as "running but never stopped" and the remaining VPs' batches
// would wait forever.
func (s *Service) WrapApp(app vp.App) vp.App {
	return func(v *vp.VP) error {
		defer s.UnregisterVP(v.ID)
		return app(v)
	}
}

// Backend returns an in-process cudart back end for one VP: operations are
// enqueued as jobs (asynchronously — the VP only stops when it waits),
// giving the Re-scheduler whole per-VP bursts to interleave and coalesce.
// The caller must RegisterVP/UnregisterVP around the VP's lifetime.
func (s *Service) Backend(vp int) cudart.Backend {
	return serviceBackend{s: s, vp: vp}
}

type serviceBackend struct {
	s  *Service
	vp int
}

type jobToken struct {
	s  *Service
	vp int
	j  *sched.Job
}

func (t jobToken) Wait() error                { return t.s.WaitJob(t.vp, t.j) }
func (t jobToken) Interval() hostgpu.Interval { return t.j.Interval }
func (t jobToken) Bytes() []byte              { return t.j.Data }

func (b serviceBackend) Malloc(n int) (devmem.Ptr, error) { return b.s.AllocVP(b.vp, n) }
func (b serviceBackend) Free(p devmem.Ptr) error          { return b.s.FreeVP(b.vp, p) }

func (b serviceBackend) H2D(stream int, dst devmem.Ptr, off int, data []byte) (cudart.Token, error) {
	dev, err := streamOf(b.vp, stream)
	if err != nil {
		return nil, err
	}
	j := sched.NewH2D(b.vp, dev, b.s.ResolvePtr(b.vp, dst), off, data)
	b.s.Submit(j)
	return jobToken{s: b.s, vp: b.vp, j: j}, nil
}

func (b serviceBackend) D2H(stream int, src devmem.Ptr, off, n int) (cudart.Token, error) {
	dev, err := streamOf(b.vp, stream)
	if err != nil {
		return nil, err
	}
	j := sched.NewD2H(b.vp, dev, b.s.ResolvePtr(b.vp, src), off, n)
	b.s.Submit(j)
	return jobToken{s: b.s, vp: b.vp, j: j}, nil
}

func (b serviceBackend) Memset(stream int, dst devmem.Ptr, off, n int, value byte) (cudart.Token, error) {
	dev, err := streamOf(b.vp, stream)
	if err != nil {
		return nil, err
	}
	j := sched.NewMemset(b.vp, dev, b.s.ResolvePtr(b.vp, dst), off, n, value)
	b.s.Submit(j)
	return jobToken{s: b.s, vp: b.vp, j: j}, nil
}

func (b serviceBackend) Launch(stream int, l *hostgpu.Launch) (cudart.Token, error) {
	dev, err := streamOf(b.vp, stream)
	if err != nil {
		return nil, err
	}
	if resolved, changed := b.s.resolveBindings(b.vp, l.Bindings); changed {
		// Rebased pointers: bind the kernel to the relocated device
		// addresses without mutating the caller's launch.
		moved := *l
		moved.Bindings = resolved
		l = &moved
	}
	j := sched.NewKernel(b.vp, dev, l)
	// The Kernel Match stage needs the coalescability of the kernel, which
	// the registry records per benchmark.
	if bench, err := kernels.Get(l.Kernel.Name); err == nil {
		j.Coalescable = bench.Coalescable
	}
	b.s.Submit(j)
	return jobToken{s: b.s, vp: b.vp, j: j}, nil
}

func (b serviceBackend) Close() error { return nil }
