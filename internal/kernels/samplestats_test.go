package kernels

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/kpl"
	"repro/internal/kpl/kplgen"
)

// statsDigest hashes every field of a Stats, map keys included.
func statsDigest(st *kpl.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d", st.Instr, st.Threads)
	for _, m := range []map[string]int64{st.Trips, st.Entries, st.BufLd, st.BufSt} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(h, "|")
		for _, k := range keys {
			fmt.Fprintf(h, "%q=%d,", k, m[k])
		}
	}
	return h.Sum64()
}

// sampleStatsGolden holds statsDigest(SampleStats(env, 32)) of every suite
// kernel at scale 1, taken at the commit before SampleStats ran its sample
// over one bound frame and stopped cloning read-only buffers (when it called
// ExecThread 32 times against clones of everything).
var sampleStatsGolden = map[string]uint64{
	"BlackScholes":           0x94550804f55a0340,
	"Mandelbrot":             0x94a87d30c1b4a9e6,
	"MonteCarlo":             0xd94656da5d4ccd5d,
	"SobelFilter":            0xa367a5ed58472f87,
	"VolumeFiltering":        0xd2253554a4c123d1,
	"bicubicTexture":         0x9a9367f75ea0f21a,
	"binomialOptions":        0x7263a85f5acac917,
	"convolutionSeparable":   0x799e5aee108e71c5,
	"convolutionTexture":     0xdcecdba82bec8b60,
	"dct8x8":                 0x9073d136b280feaf,
	"dwtHaar1D":              0x4b9a8e1e10963eae,
	"fastWalshTransform":     0xb1b5d6bc32da31e7,
	"histogram":              0xe283938dbeac91fd,
	"marchingCubes":          0x1aab3bddcb48fdbf,
	"matrixMul":              0xe6ca4cd6964f90a9,
	"mergeSort":              0xb183e2aab366c0ea,
	"nbody":                  0xa209661acbda75ef,
	"quasirandomGenerator":   0x29b4643ff058cbbd,
	"recursiveGaussian":      0xac814b22dca9837,
	"reduction":              0xaad3b5e0be10cbce,
	"scalarProd":             0x1772fd39f0ed0099,
	"scan":                   0x26b1cf8920bd62af,
	"segmentationTreeThrust": 0xea5c58f467a06e28,
	"simpleGL":               0xc9f85113b839ff50,
	"smokeParticles":         0x96d142fb4c68272,
	"stereoDisparity":        0x8202494932f151f0,
	"transpose":              0xbabec398381f3c22,
	"vectorAdd":              0x49a36ff1b14d154f,
}

// TestSampleStatsMatchesGolden: the sampled statistics — every count, every
// map key — are what they were before the sampling path was rewritten, and
// sampling leaves the launch's own buffers untouched.
func TestSampleStatsMatchesGolden(t *testing.T) {
	if len(sampleStatsGolden) != len(All()) {
		t.Fatalf("%d goldens for %d suite kernels", len(sampleStatsGolden), len(All()))
	}
	for _, b := range All() {
		env := buildEnv(t, b, b.MakeWorkload(1))
		before := kplgen.CloneEnv(env)
		st, err := b.Kernel.SampleStats(env, 32)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got, want := statsDigest(st), sampleStatsGolden[b.Name]; got != want {
			t.Errorf("%s: SampleStats digest %#x, want %#x\n%+v", b.Name, got, want, st)
		}
		for name, buf := range env.Bufs {
			if err := kplgen.BuffersEqual(before.Bufs[name], buf); err != nil {
				t.Errorf("%s: SampleStats changed buffer %s: %v", b.Name, name, err)
			}
		}
	}
}
