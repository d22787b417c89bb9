package kernels

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/metrics"
)

// provisionLaunch allocates the workload's buffers on g, writes its inputs and
// returns the bound launch.
func provisionLaunch(t *testing.T, g *hostgpu.GPU, b *Benchmark, w *Workload) *hostgpu.Launch {
	t.Helper()
	l := b.NewLaunch(w)
	l.Bindings = map[string]devmem.Ptr{}
	for _, decl := range b.Kernel.Bufs {
		p, err := g.Mem.Alloc(w.BufBytes[decl.Name])
		if err != nil {
			t.Fatal(err)
		}
		if in, ok := w.Inputs[decl.Name]; ok {
			if err := g.Mem.Write(p, 0, in); err != nil {
				t.Fatal(err)
			}
		}
		l.Bindings[decl.Name] = p
	}
	return l
}

// TestTimingCacheSeparatesCacheHints: matrixMul and a copy of it that sends
// every access of a and b to L2 compute the same thing (one Signature) and are
// priced differently, because the cached access streams and timing come from
// the cache model, which reads L2Fraction and Stride. The copy used to be
// served matrixMul's entry.
func TestTimingCacheSeparatesCacheHints(t *testing.T) {
	w := MatrixMul.MakeWorkload(1)
	hinted := *MatrixMul.Kernel
	hinted.Bufs = append([]kpl.BufDecl(nil), MatrixMul.Kernel.Bufs...)
	for i := range hinted.Bufs {
		if hinted.Bufs[i].ReadOnly {
			hinted.Bufs[i].L2Fraction = 1
		}
	}
	prog, err := kir.Analyze(&hinted)
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Signature() != MatrixMul.Kernel.Signature() {
		t.Fatal("cache hints reached Kernel.Signature")
	}
	price := func(g *hostgpu.GPU, l *hostgpu.Launch, k *kpl.Kernel, p *kir.Program) float64 {
		t.Helper()
		c := *l
		c.Kernel, c.Prog = k, p
		_, _, tm, err := g.LaunchTiming(&c)
		if err != nil {
			t.Fatal(err)
		}
		return tm.Seconds
	}
	shared := hostgpu.NewTimingOnly(arch.Quadro4000(), 1<<26)
	l := provisionLaunch(t, shared, MatrixMul, w)
	plain := price(shared, l, MatrixMul.Kernel, MatrixMul.Prog)
	got := price(shared, l, &hinted, prog)

	fresh := hostgpu.NewTimingOnly(arch.Quadro4000(), 1<<26)
	want := price(fresh, provisionLaunch(t, fresh, MatrixMul, w), &hinted, prog)
	if got != want {
		t.Errorf("hinted copy priced %.9g s after matrixMul on one device, %.9g s on a fresh one", got, want)
	}
	if want == plain {
		t.Fatalf("the hint does not move the price (%.9g s): the test shows nothing", want)
	}
}

// TestSampledPricingMatchesBindAndSample: mergeSort's λ is data-dependent and
// the launch brings no Dyn, so pricing samples live memory. Binding every
// parameter as a view gives, bit for bit, the σ and access streams of the
// route it replaces — Launch.Bind, whose writable parameters are private
// copies, then SampleDyn — stays uncached, and leaves device memory as it was.
func TestSampledPricingMatchesBindAndSample(t *testing.T) {
	b := MergeSort
	if !b.Prog.NeedsDynamicProfile() {
		t.Fatal("mergeSort no longer needs a dynamic profile")
	}
	w := b.MakeWorkload(1)
	g := hostgpu.New(arch.Quadro4000(), 1<<26) // backed: pricing samples its bytes
	g.Metrics = metrics.New()
	l := provisionLaunch(t, g, b, w)
	image := func() map[string][]byte {
		out := map[string][]byte{}
		for name, p := range l.Bindings {
			raw, err := g.Mem.Read(p, 0, w.BufBytes[name])
			if err != nil {
				t.Fatal(err)
			}
			out[name] = raw
		}
		return out
	}
	before := image()

	// The old route, spelled out.
	env, err := l.Bind("hostgpu", g.Mem)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := hostgpu.SampleDyn(b.Kernel, b.Prog, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSigma, err := b.Prog.Sigma(&g.Arch, kir.Launch{NThreads: l.Threads(), Params: l.Params}, dyn)
	if err != nil {
		t.Fatal(err)
	}
	withDyn := *l
	withDyn.Dyn = dyn
	ref := hostgpu.NewTimingOnly(arch.Quadro4000(), 1<<26) // a fresh device: its first pricing is a miss
	withDyn.Bindings = provisionLaunch(t, ref, b, w).Bindings
	want, err := ref.Price(&withDyn)
	if err != nil {
		t.Fatal(err)
	}
	wantAccesses := want.Accesses

	for i := 0; i < 2; i++ {
		p, err := g.Price(l)
		if err != nil {
			t.Fatal(err)
		}
		sigma, accesses := p.Sigma, p.Accesses
		if sigma != wantSigma {
			t.Errorf("σ = %v, want %v", sigma, wantSigma)
		}
		if !reflect.DeepEqual(accesses, wantAccesses) {
			t.Errorf("access streams = %+v, want %+v", accesses, wantAccesses)
		}
	}
	if hits, misses := g.Metrics.Counter("hostgpu.timing_cache.hits").Value(), g.Metrics.Counter("hostgpu.timing_cache.misses").Value(); hits != 0 || misses != 0 {
		t.Errorf("a launch priced from live memory touched the cache: %d hits, %d misses", hits, misses)
	}
	for name, raw := range image() {
		if !bytes.Equal(raw, before[name]) {
			t.Errorf("sampling changed device buffer %q", name)
		}
	}
}
