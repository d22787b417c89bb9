package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/trace"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTimingOnlyKeepsNoHostBytes: on a timing-only device, 256 MiB allocated
// and written through the farm's request path, and 256 MiB more allocated and
// written on its memory directly, grow the Go heap by less than 1 MiB, while
// the device accounts for all of it.
func TestTimingOnlyKeepsNoHostBytes(t *testing.T) {
	const n = 256 << 20
	opts := DefaultOptions()
	opts.Mode = hostgpu.ExecTimingOnly
	farm, dev := farmOfOne(t, opts)
	farm.RegisterVP(1)
	data := make([]byte, n)
	warm := mallocVP(t, farm, 1, 64).Ptr
	if _, ok := farm.Handle(1, ipc.H2DReq{Dst: warm, Data: data[:64]}).(ipc.OKResp); !ok {
		t.Fatal("H2D refused")
	}

	before := liveHeap()
	p := mallocVP(t, farm, 1, n).Ptr
	if _, ok := farm.Handle(1, ipc.H2DReq{Dst: p, Data: data}).(ipc.OKResp); !ok {
		t.Fatal("H2D of 256 MiB refused")
	}
	q, err := dev.GPU.Mem.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.GPU.Mem.Write(q, 0, data); err != nil {
		t.Fatal(err)
	}
	grew := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(data)
	if grew >= 1<<20 {
		t.Errorf("512 MiB allocated and written on a timing-only device grew the heap by %d bytes", grew)
	}
	if used := dev.GPU.Mem.Used(); used != 2*n+64 {
		t.Errorf("the device accounts for %d bytes, want %d", used, 2*n+64)
	}
}

// timingOnlyMoves is what TestTimingOnlyCheckpointAndMigration observes of
// one run.
type timingOnlyMoves struct {
	image   []byte         // the farm checkpoint, encoded
	allocs  [][2]uint64    // VP 0's guest pointers and sizes on the target
	memory  [2][3]int64    // per device: Used, Headroom, HighWater after the migration
	records []trace.Record // the target's timeline after the VP's later jobs
}

// TestTimingOnlyCheckpointAndMigration checkpoints a VP on a two-device
// timing-only farm and live-migrates it onto a device whose low addresses
// another VP holds. Every allocation survives both with its guest pointer and
// size; the checkpoint restores onto a fresh farm alike; and the image's
// length, both devices' Used, Headroom and HighWater, and the simulated times
// of the VP's later jobs are those of the same run on timing-only devices
// whose memory is backed. (The images' bytes differ: a backed memory stores
// what is copied into it, a byte-less one reads as zeros.)
func TestTimingOnlyCheckpointAndMigration(t *testing.T) {
	unbacked, backed := timingOnlyRun(t, false), timingOnlyRun(t, true)
	if len(unbacked.image) != len(backed.image) {
		t.Errorf("checkpoint image of %d bytes, backed run's %d", len(unbacked.image), len(backed.image))
	}
	if fmt.Sprint(unbacked.allocs) != fmt.Sprint(backed.allocs) {
		t.Errorf("allocations after migration %v, backed run %v", unbacked.allocs, backed.allocs)
	}
	if unbacked.memory != backed.memory {
		t.Errorf("device memory accounting %v, backed run %v", unbacked.memory, backed.memory)
	}
	if fmt.Sprint(unbacked.records) != fmt.Sprint(backed.records) {
		t.Errorf("target timeline\n%v\nbacked run\n%v", unbacked.records, backed.records)
	}
}

func timingOnlyRun(t *testing.T, backed bool) timingOnlyMoves {
	t.Helper()
	opts := DefaultOptions()
	opts.Mode = hostgpu.ExecTimingOnly
	opts.Trace = true
	gpus := []arch.GPU{arch.Quadro4000(), arch.Quadro4000()}
	m, err := NewMultiServicePlaced(opts, gpus, PlaceRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if backed {
		for i := range gpus {
			m.Device(i).GPU.Mem = devmem.New(opts.MemBytes)
		}
	}
	m.RegisterVP(0) // → device 0
	// Occupy device 1's low addresses, so the migration must rebase some of
	// the VP's allocations. A raw arena alloc keeps the batch scheduler out
	// of it: no second VP is registered to wait for.
	if _, err := m.Device(1).GPU.Mem.Alloc(3000); err != nil {
		t.Fatal(err)
	}

	const elems = 1 << 12
	sizes := []int{4 * elems, 100, 4 * elems, 1 << 20, 4 * elems}
	var ptrs []devmem.Ptr
	for i, n := range sizes {
		p := mallocVP(t, m, 0, n).Ptr
		if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: fillPattern(n, i)}).(ipc.OKResp); !ok {
			t.Fatalf("H2D of %d bytes refused", n)
		}
		ptrs = append(ptrs, p)
	}
	if _, ok := m.Handle(0, ipc.FreeReq{Ptr: ptrs[1]}).(ipc.OKResp); !ok {
		t.Fatal("free refused")
	}
	ptrs = append(ptrs[:1], ptrs[2:]...)
	sizes = append(sizes[:1], sizes[2:]...)

	ck, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	image := ck.Marshal()
	decoded, err := DecodeCheckpoint(image)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMultiServicePlaced(opts, gpus, PlaceRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.MigrationSnapshot().CounterValue("core.migrate.ptrs_rebased") == 0 {
		t.Fatal("the migration rebased no pointer")
	}

	var run timingOnlyMoves
	run.image = image
	for _, farm := range []*MultiService{fresh, m} {
		d, _ := farm.Assignment(0)
		dev := farm.Device(d)
		for i, guest := range ptrs {
			p, err := dev.ResolvePtr(0, guest)
			if err != nil {
				t.Fatalf("guest pointer %#x lost: %v", uint64(guest), err)
			}
			n, err := dev.GPU.Mem.Size(p)
			if err != nil || n != sizes[i] {
				t.Fatalf("guest pointer %#x: %d bytes, %v; want %d", uint64(guest), n, err, sizes[i])
			}
			if farm == m {
				run.allocs = append(run.allocs, [2]uint64{uint64(guest), uint64(n)})
			}
		}
	}
	for i := range gpus {
		mem := m.Device(i).GPU.Mem
		run.memory[i] = [3]int64{mem.Used(), mem.Headroom(), int64(mem.HighWater())}
	}

	// The VP's later jobs on the target: copies in, a launch, a copy out.
	for _, p := range ptrs[:2] {
		if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: fillPattern(4*elems, 9)}).(ipc.OKResp); !ok {
			t.Fatal("H2D after migration refused")
		}
	}
	launch := ipc.LaunchReq{
		Kernel: "vectorAdd", Grid: elems / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(elems)},
		Bindings: map[string]devmem.Ptr{"a": ptrs[0], "b": ptrs[1], "out": ptrs[3]},
	}
	if resp, ok := m.Handle(0, launch).(ipc.OKResp); !ok {
		t.Fatalf("launch after migration answered %#v", resp)
	}
	if _, ok := m.Handle(0, ipc.D2HReq{Src: ptrs[3], N: 4 * elems}).(ipc.D2HResp); !ok {
		t.Fatal("D2H after migration refused")
	}
	m.Flush()
	run.records = m.Device(1).Trace().Timeline().Records
	if len(run.records) < 5 {
		t.Fatalf("the target's timeline holds %d records", len(run.records))
	}
	return run
}

// TestTimingOnlyRefusesSampledLaunch: on a timing-only farm a served launch of
// an application whose λ is data-dependent, brought without λ, is refused in
// words that name the missing λ: the device keeps no bytes to sample it from,
// and a λ sampled from zeros would price a kernel that never saw its inputs.
// The same launch carrying the workload's λ (Dyn) is priced exactly as the
// workload is on a device that holds its bytes.
func TestTimingOnlyRefusesSampledLaunch(t *testing.T) {
	for _, app := range []string{"Mandelbrot", "binomialOptions", "mergeSort"} {
		t.Run(app, func(t *testing.T) { timingOnlyRefusesSampledLaunch(t, app) })
	}
}

func timingOnlyRefusesSampledLaunch(t *testing.T, app string) {
	bench, err := kernels.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	w := bench.MakeWorkload(1)
	opts := DefaultOptions()
	opts.Mode = hostgpu.ExecTimingOnly
	opts.Trace = true
	m, s := farmOfOne(t, opts)
	m.RegisterVP(0)
	req := ipc.LaunchReq{Kernel: app, Grid: w.Grid, Block: w.Block, Params: w.Params, Bindings: map[string]devmem.Ptr{}}
	for _, decl := range bench.Kernel.Bufs {
		p := mallocVP(t, m, 0, w.BufBytes[decl.Name]).Ptr
		req.Bindings[decl.Name] = p
		if in, ok := w.Inputs[decl.Name]; ok {
			if _, ok := m.Handle(0, ipc.H2DReq{Dst: p, Data: in}).(ipc.OKResp); !ok {
				t.Fatalf("H2D of %s refused", decl.Name)
			}
		}
	}
	want := "hostgpu: " + app + ": the launch brings no λ and device memory keeps no bytes to sample it from: devmem: allocation keeps no bytes"
	if resp := m.Handle(0, req); fmt.Sprint(resp) != fmt.Sprint(ipc.ErrResp{Msg: want}) {
		t.Fatalf("launch without λ answered %#v, want ErrResp %q", resp, want)
	}

	dyn, err := bench.SampleDyn(w)
	if err != nil {
		t.Fatal(err)
	}
	l := bench.NewLaunch(w)
	l.Bindings, l.Dyn = req.Bindings, dyn
	if err := cudart.NewContext(0, m.Backend(0)).LaunchKernel(l); err != nil {
		t.Fatalf("launch with λ: %v", err)
	}
	m.UnregisterVP(0)
	s.Flush()
	var run *trace.Record
	for i, r := range s.Trace().Timeline().Records {
		if r.Engine == hostgpu.EngineCompute && r.Label == app {
			run = &s.Trace().Timeline().Records[i]
		}
	}
	_, priced, _, err := bench.Measure(hostgpu.New(opts.Arch, 1<<32), w)
	if err != nil {
		t.Fatal(err)
	}
	if run == nil || run.End != run.Start+priced.Timing.Seconds {
		t.Fatalf("launch with λ ran as %+v, want %v s", run, priced.Timing.Seconds)
	}
}
