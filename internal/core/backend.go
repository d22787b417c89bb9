package core

import (
	"sync"

	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/sched"
	"repro/internal/vp"
)

// WrapApp returns an application that unregisters its VP from the batching
// logic the moment it finishes. Without this, a VP that completes early
// would count as "running but never stopped" and the remaining VPs' batches
// would wait forever.
func (m *MultiService) WrapApp(app vp.App) vp.App {
	return func(v *vp.VP) error {
		defer m.UnregisterVP(v.ID)
		return app(v)
	}
}

// Backend returns the in-process cudart back end of a VP, placing the VP on a
// device if it has none yet: operations are enqueued as jobs (asynchronously —
// the VP only stops when it waits), giving the Re-scheduler whole per-VP
// bursts to interleave and coalesce. The caller must RegisterVP/UnregisterVP
// around the VP's lifetime.
func (m *MultiService) Backend(vp int) *multiBackend {
	m.serviceFor(vp)
	return &multiBackend{m: m, vp: vp, gate: m.gate(vp)}
}

// multiBackend is the one in-process back end: a VP's, on a farm of one device
// or many. Every call resolves the VP's device afresh, holding the VP's
// migration gate shared as Handle does, so after a migration the VP's work
// follows it to the target device and a migration never overlaps a submit.
// Tokens stay valid across a move: Migrate drains the source before it evicts
// the VP.
type multiBackend struct {
	m    *MultiService
	vp   int
	gate *sync.RWMutex
}

// Service returns the device service the VP is on now.
func (b *multiBackend) Service() *Service { return b.m.serviceFor(b.vp) }

// jobToken is the cudart token of a submitted job.
type jobToken struct {
	s *Service
	j *sched.Job
}

func (t jobToken) Wait() error                { return t.s.WaitJob(t.j.VP, t.j) }
func (t jobToken) Interval() hostgpu.Interval { return t.j.Interval }
func (t jobToken) Bytes() []byte              { return t.j.Data }

// enqueue is the in-process tail of a job builder: submit without waiting and
// hand back the job's token.
func (s *Service) enqueue(j *sched.Job, err error) (cudart.Token, error) {
	if err != nil {
		return nil, err
	}
	s.Submit(j)
	return jobToken{s: s, j: j}, nil
}

func (b *multiBackend) Malloc(n int) (devmem.Ptr, error) {
	b.gate.RLock()
	defer b.gate.RUnlock()
	return b.Service().AllocVP(b.vp, n)
}

func (b *multiBackend) Free(p devmem.Ptr) error {
	b.gate.RLock()
	defer b.gate.RUnlock()
	return b.Service().FreeVP(b.vp, p)
}

func (b *multiBackend) H2D(stream int, dst devmem.Ptr, off int, data []byte) (cudart.Token, error) {
	b.gate.RLock()
	defer b.gate.RUnlock()
	s := b.Service()
	return s.enqueue(s.h2dJob(b.vp, stream, dst, off, data))
}

func (b *multiBackend) D2H(stream int, src devmem.Ptr, off, n int) (cudart.Token, error) {
	b.gate.RLock()
	defer b.gate.RUnlock()
	s := b.Service()
	return s.enqueue(s.d2hJob(b.vp, stream, src, off, n, nil))
}

func (b *multiBackend) Memset(stream int, dst devmem.Ptr, off, n int, value byte) (cudart.Token, error) {
	b.gate.RLock()
	defer b.gate.RUnlock()
	s := b.Service()
	return s.enqueue(s.memsetJob(b.vp, stream, dst, off, n, value))
}

func (b *multiBackend) Launch(stream int, l *hostgpu.Launch) (cudart.Token, error) {
	b.gate.RLock()
	defer b.gate.RUnlock()
	s := b.Service()
	return s.enqueue(s.kernelJob(b.vp, stream, l))
}

func (b *multiBackend) Close() error { return nil }
