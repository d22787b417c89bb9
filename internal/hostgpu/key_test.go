package hostgpu

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/devmem"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/raceflag"
)

// TestPricingAllocs pins what pricing a launch costs the host: a hit of
// either lookup allocates nothing, and a miss on a kernel whose loops are
// static allocates the entry and its access streams, not the bindings — 48 MiB
// here, of which no byte is read or changed.
func TestPricingAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const n = 4 << 20 // three 16 MiB buffers
	g := NewTimingOnly(arch.Quadro4000(), 1<<28)
	g.Metrics = metrics.New()
	k, prog := vecAdd(t)
	l := &Launch{
		Kernel: k, Prog: prog, Grid: n / 256, Block: 256,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(n)},
		Bindings: map[string]devmem.Ptr{},
	}
	for i, name := range []string{"a", "b", "out"} {
		p, err := g.Mem.Alloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Mem.Fill(p, 0, 4*n, byte(i+1)); err != nil {
			t.Fatal(err)
		}
		l.Bindings[name] = p
	}
	sums := func() (out [3]uint32) {
		for i, name := range []string{"a", "b", "out"} {
			raw, err := g.Mem.Read(l.Bindings[name], 0, 4*n)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = crc32.ChecksumIEEE(raw)
		}
		return out
	}
	before := sums()

	// Every call prices a grid not seen before: a miss and a store each.
	miss := func() {
		l.Grid++
		if _, _, _, err := g.LaunchTiming(l); err != nil {
			t.Fatal(err)
		}
	}
	miss()
	_, misses0 := cacheStats(t, g)
	old := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	miss()
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(old)
	if _, misses := cacheStats(t, g); misses != misses0+1 {
		t.Fatalf("the measured call was not a miss (%d → %d)", misses0, misses)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 64<<10 {
		t.Errorf("a miss over 48 MiB of bindings allocates %d bytes, want < 64 KiB", got)
	}
	if after := sums(); after != before {
		t.Errorf("pricing changed device memory: checksums %v → %v", before, after)
	}

	if a := testing.AllocsPerRun(100, func() {
		if _, _, _, err := g.LaunchTiming(l); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a LaunchTiming hit allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := g.Price(l); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a Price hit allocates %v times, want 0", a)
	}
	if hits, _ := cacheStats(t, g); hits < 200 {
		t.Errorf("the measured lookups were not hits (%d)", hits)
	}
}

// keyCase is one launch of the discrimination tests: a kernel (body variant,
// cache hints), geometry, parameters, one buffer's size, pre-measured stats.
type keyCase struct {
	body       int // selects the stored constant
	stride     int
	l2         float64
	geom       [4]int // grid, block, shared, regs
	pt         kpl.Type
	pf         float64
	pi         int64
	size       int
	dyn        bool
	dynTrips   int64
	dynThreads int
}

// launch materialises the case on g; programs are analyzed once per kernel
// variant, as the registry does.
func (c keyCase) launch(t testing.TB, g *GPU, progs map[[3]uint64]*kir.Program) *Launch {
	id := [3]uint64{uint64(c.body), uint64(c.stride), math.Float64bits(c.l2)}
	prog := progs[id]
	if prog == nil {
		k := &kpl.Kernel{
			Name:   "keyed",
			Params: []kpl.ParamDecl{{Name: "p", T: kpl.F64}},
			Bufs:   []kpl.BufDecl{{Name: "out", Elem: kpl.F32, Access: kpl.AccessStrided, Stride: c.stride, L2Fraction: c.l2}},
			Body: []kpl.Stmt{
				kpl.For("L", "i", kpl.CI(0), kpl.CI(4),
					kpl.Store("out", kpl.Mod(kpl.TID(), kpl.CI(16)), kpl.CF(float64(c.body)))),
			},
		}
		var err error
		if prog, err = kir.Analyze(k); err != nil {
			t.Fatal(err)
		}
		progs[id] = prog
	}
	ptr, err := g.Mem.Alloc(c.size)
	if err != nil {
		t.Fatal(err)
	}
	l := &Launch{
		Kernel: prog.Kernel, Prog: prog,
		Grid: c.geom[0], Block: c.geom[1], SharedMemPerBlock: c.geom[2], RegsPerThread: c.geom[3],
		Params:   map[string]kpl.Value{"p": {T: c.pt, F: c.pf, I: c.pi}},
		Bindings: map[string]devmem.Ptr{"out": ptr},
	}
	if c.dyn {
		l.Dyn = kpl.NewStats()
		l.Dyn.Trips["L"], l.Dyn.Entries["L"], l.Dyn.Threads = c.dynTrips, 1, c.dynThreads
	}
	return l
}

func (c keyCase) key(t testing.TB, g *GPU, progs map[[3]uint64]*kir.Program) []byte {
	l := c.launch(t, g, progs)
	key, ok := g.appendTimingKey(nil, l)
	if !ok {
		t.Fatalf("%+v: uncacheable", c)
	}
	if err := g.Mem.Free(l.Bindings["out"]); err != nil {
		t.Fatal(err)
	}
	return key
}

// keyMutations change exactly one thing the pricing may depend on; prep, when
// set, is applied to both launches first so that the thing is in the key.
var keyMutations = []struct {
	name      string
	prep, mut func(c *keyCase)
}{
	{"kernel body", nil, func(c *keyCase) { c.body++ }},
	{"stride", nil, func(c *keyCase) { c.stride++ }},
	{"L2Fraction", nil, func(c *keyCase) { c.l2 = math.Nextafter(c.l2, 2) }},
	{"grid", nil, func(c *keyCase) { c.geom[0]++ }},
	{"block", nil, func(c *keyCase) { c.geom[1]++ }},
	{"shared memory", nil, func(c *keyCase) { c.geom[2]++ }},
	{"registers", nil, func(c *keyCase) { c.geom[3]++ }},
	{"parameter type", nil, func(c *keyCase) { c.pt = (c.pt + 1) % 3 }},
	{"parameter F", nil, func(c *keyCase) { c.pf = math.Nextafter(c.pf, math.Inf(1)) }},
	{"parameter F sign of zero", func(c *keyCase) { c.pf = 0 }, func(c *keyCase) { c.pf = math.Copysign(0, -1) }},
	{"parameter I", nil, func(c *keyCase) { c.pi++ }},
	{"allocation size", nil, func(c *keyCase) { c.size += 4 }},
	{"Dyn present", nil, func(c *keyCase) { c.dyn = !c.dyn }},
	{"Dyn trips", func(c *keyCase) { c.dyn = true }, func(c *keyCase) { c.dynTrips++ }},
	{"Dyn threads", func(c *keyCase) { c.dyn = true }, func(c *keyCase) { c.dynThreads++ }},
}

// mutatedPair returns base prepared for mutation i, and the mutated case.
func mutatedPair(base keyCase, i int) (keyCase, keyCase) {
	if prep := keyMutations[i].prep; prep != nil {
		prep(&base)
	}
	mut := base
	keyMutations[i].mut(&mut)
	return base, mut
}

var keyBase = keyCase{body: 1, stride: 2, l2: 0.5, geom: [4]int{8, 64, 0, 16}, pt: kpl.F64, pf: 1.5, pi: 7, size: 4096, dynTrips: 9, dynThreads: 512}

// TestTimingKeyDiscrimination: a launch that differs from another in exactly
// one of the things pricing reads never shares its key, nor its cache entry.
func TestTimingKeyDiscrimination(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<24)
	progs := map[[3]uint64]*kir.Program{}
	for i, m := range keyMutations {
		a, b := mutatedPair(keyBase, i)
		if bytes.Equal(a.key(t, g, progs), b.key(t, g, progs)) {
			t.Errorf("%s: the keys are equal", m.name)
		}
		if !bytes.Equal(a.key(t, g, progs), a.key(t, g, progs)) {
			t.Errorf("%s: an equal launch built a different key", m.name)
		}
		// Through the cache: a, then b misses, then a and b again both hit.
		dev := NewTimingOnly(arch.Quadro4000(), 1<<24)
		dev.Metrics = metrics.New()
		want := [][2]int64{{0, 1}, {0, 2}, {1, 2}, {2, 2}}
		for step, c := range []keyCase{a, b, a, b} {
			if _, _, _, err := dev.LaunchTiming(c.launch(t, dev, progs)); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if hits, misses := cacheStats(t, dev); [2]int64{hits, misses} != want[step] {
				t.Errorf("%s: after launch %d hits/misses = %d/%d, want %v", m.name, step, hits, misses, want[step])
			}
		}
	}
}

// TestTimingKeyProperty draws a random launch and a random single mutation of
// it: the keys differ, and a second build of either is equal to the first.
func TestTimingKeyProperty(t *testing.T) {
	g := NewTimingOnly(arch.Quadro4000(), 1<<24)
	progs := map[[3]uint64]*kir.Program{}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := keyCase{
			body: r.Intn(4), stride: r.Intn(4), l2: float64(r.Intn(5)) / 4,
			geom: [4]int{1 + r.Intn(64), 1 + r.Intn(512), r.Intn(3) * 1024, r.Intn(64)},
			pt:   kpl.Type(r.Intn(3)), pf: []float64{0, math.Copysign(0, -1), 1, r.NormFloat64()}[r.Intn(4)], pi: r.Int63n(1 << 40),
			size: 4 * (1 + r.Intn(4096)),
			dyn:  r.Intn(2) == 0, dynTrips: r.Int63n(1000), dynThreads: r.Intn(1 << 16),
		}
		i := r.Intn(len(keyMutations))
		a, b := mutatedPair(base, i)
		ka, kb := a.key(t, g, progs), b.key(t, g, progs)
		if bytes.Equal(ka, kb) {
			t.Logf("seed %d: %s left the key unchanged", seed, keyMutations[i].name)
			return false
		}
		return bytes.Equal(ka, a.key(t, g, progs)) && bytes.Equal(kb, b.key(t, g, progs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10000, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// TestTimingKeyBufferOrder: the kernel identity does not depend on the order
// of the buffer declarations, so the key names the buffer each size belongs to.
func TestTimingKeyBufferOrder(t *testing.T) {
	g := New(arch.Quadro4000(), 1<<24)
	mk := func(names ...string) *Launch {
		k := &kpl.Kernel{Name: "two"}
		for _, n := range names {
			k.Bufs = append(k.Bufs, kpl.BufDecl{Name: n, Elem: kpl.F32, Access: kpl.AccessSeq})
		}
		k.Body = []kpl.Stmt{kpl.Store("x", kpl.CI(0), kpl.Load("y", kpl.CI(0)))}
		prog, err := kir.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		return &Launch{Kernel: k, Prog: prog, Grid: 1, Block: 32, Bindings: map[string]devmem.Ptr{}}
	}
	xy, yx := mk("x", "y"), mk("y", "x")
	if xy.Prog.Identity() != yx.Prog.Identity() {
		t.Fatal("identity depends on the order of the buffer declarations")
	}
	small, _ := g.Mem.Reserve(64)
	large, _ := g.Mem.Reserve(128)
	xy.Bindings["x"], xy.Bindings["y"] = small, large
	yx.Bindings["y"], yx.Bindings["x"] = small, large
	kxy, _ := g.appendTimingKey(nil, xy)
	kyx, _ := g.appendTimingKey(nil, yx)
	if bytes.Equal(kxy, kyx) {
		t.Error("launches with the two buffers' sizes swapped share a key")
	}
}

// TestDynFingerprintMixesEntries: a count map's entries are hashed one by one
// and summed, so unmixed, two maps whose counts trade one between two labels
// — the low bit of each count flipping in opposite directions — sum as
// before, and two launches whose λ differ that way would share a pricing.
func TestDynFingerprintMixesEntries(t *testing.T) {
	stats := func(l0, l2 int64) *kpl.Stats {
		st := kpl.NewStats()
		st.Trips["l0"], st.Trips["l2"], st.Threads = l0, l2, 64
		return st
	}
	if dynFingerprint(stats(5, 6)) == dynFingerprint(stats(4, 7)) {
		t.Error("Trips {l0: 5, l2: 6} and {l0: 4, l2: 7} share a fingerprint")
	}
	if dynFingerprint(stats(5, 6)) != dynFingerprint(stats(5, 6)) {
		t.Error("equal stats fingerprint differently")
	}
}
