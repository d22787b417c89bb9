// Package emul is the GPU-software-emulation back end — the baseline ΣVP is
// measured against (paper Fig. 1a): GPU kernels execute on the simulated CPU
// of the virtual platform, thread by thread, with no physical GPU involved.
//
// Functionally the emulator executes the kernel's kpl program thread by
// thread on kpl's compiled engine (or runs its native semantics, matching
// nvcc -deviceemu, which compiled kernels for the CPU); its *timing* comes
// from internal/cpumodel: every canonical GPU instruction costs EmulCPI CPU
// cycles plus per-thread scheduling overhead, all multiplied by the QEMU
// binary-translation slowdown when the emulator runs inside a VP. This is what makes GPU-optimized code catastrophically
// slow on VPs — the phenomenon the paper opens with.
package emul

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cpumodel"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/profile"
)

// Device is an emulated GPU living on a (possibly virtualized) CPU. The
// emulated device is fully serial: one timeline, no engine overlap.
type Device struct {
	CPU arch.CPU
	Mem *devmem.Mem

	// Workers sizes the worker pool for block-parallel kernel
	// execution (0 = runtime.NumCPU(), 1 = serial). The simulated
	// timeline and all profiles are identical for every value — only the
	// host wall-clock changes.
	Workers int

	// Metrics, when non-nil, records per-op counters and the emulated busy
	// time (emul.launches, emul.copies, emul.memsets, emul.busy_ns).
	Metrics *metrics.Registry

	mu  sync.Mutex
	now float64
}

// New returns an emulated device backed by the given CPU descriptor.
func New(c arch.CPU, memBytes int64) *Device {
	return &Device{CPU: c, Mem: devmem.New(memBytes)}
}

// advance adds dur to the device timeline and returns the op interval.
func (d *Device) advance(dur float64) hostgpu.Interval {
	d.Metrics.Counter("emul.busy_ns").Add(int64(math.Round(dur * 1e9)))
	d.mu.Lock()
	defer d.mu.Unlock()
	start := d.now
	d.now += dur
	return hostgpu.Interval{Start: start, End: d.now}
}

// Now returns the current simulated time.
func (d *Device) Now() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now
}

// CopyH2D emulates a host-to-device copy (a CPU memcpy).
func (d *Device) CopyH2D(dst devmem.Ptr, off int, src []byte) (hostgpu.Interval, error) {
	if err := d.Mem.Write(dst, off, src); err != nil {
		return hostgpu.Interval{}, err
	}
	d.Metrics.Counter("emul.copies").Inc()
	return d.advance(cpumodel.MemcpyTime(&d.CPU, len(src))), nil
}

// CopyD2H emulates a device-to-host copy.
func (d *Device) CopyD2H(src devmem.Ptr, off, n int) ([]byte, hostgpu.Interval, error) {
	data, err := d.Mem.Read(src, off, n)
	if err != nil {
		return nil, hostgpu.Interval{}, err
	}
	d.Metrics.Counter("emul.copies").Inc()
	return data, d.advance(cpumodel.MemcpyTime(&d.CPU, n)), nil
}

// Memset fills device memory (a CPU loop under emulation).
func (d *Device) Memset(dst devmem.Ptr, off, n int, value byte) (hostgpu.Interval, error) {
	if err := d.Mem.Fill(dst, off, n, value); err != nil {
		return hostgpu.Interval{}, err
	}
	d.Metrics.Counter("emul.memsets").Inc()
	return d.advance(cpumodel.MemcpyTime(&d.CPU, n)), nil
}

// Launch emulates a kernel: every thread executes sequentially on the CPU. It
// is a door: a launch that breaks the launch contract (hostgpu.Launch.Check)
// is refused before anything is bound.
func (d *Device) Launch(l *hostgpu.Launch) (*profile.Profile, hostgpu.Interval, error) {
	if err := l.Check(); err != nil {
		return nil, hostgpu.Interval{}, err
	}
	env, err := l.Bind("emul", d.Mem)
	if err != nil {
		return nil, hostgpu.Interval{}, err
	}
	// The kpl engine collects the exact dynamic statistics while it runs;
	// native semantics cannot.
	dyn := l.Dyn
	var st *kpl.Stats
	if l.Native == nil {
		st = kpl.NewStats()
		dyn = st
	}
	if err := l.Exec("emul", d.Mem, env, st, d.Workers); err != nil {
		return nil, hostgpu.Interval{}, err
	}
	if dyn, err = hostgpu.SampleDyn(l.Kernel, l.Prog, env, dyn); err != nil {
		return nil, hostgpu.Interval{}, err
	}

	kl := kir.Launch{NThreads: l.Threads(), Params: l.Params}
	sigma, err := l.Prog.RawSigma(kl, dyn)
	if err != nil {
		return nil, hostgpu.Interval{}, fmt.Errorf("emul: %s: %w", l.Kernel.Name, err)
	}

	dur := cpumodel.EmulTime(&d.CPU, sigma, l.Threads())
	d.Metrics.Counter("emul.launches").Inc()
	iv := d.advance(dur)
	cycles := dur * d.CPU.ClockHz()
	p := &profile.Profile{
		Kernel:        l.Kernel.Name,
		Arch:          d.CPU.Name,
		Shape:         l.Shape(),
		Sigma:         sigma,
		Cycles:        cycles,
		ComputeCycles: cycles,
		TimeSec:       dur,
	}
	return p, iv, nil
}
