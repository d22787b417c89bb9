package estimate_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/estimate"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/profile"
)

// matmulLike builds a synthetic FP64-heavy per-thread instruction vector and
// access set resembling a 320×320 double matrix multiply.
func matmulLike() (arch.ClassVec, []cachemodel.Access, profile.LaunchShape) {
	var per arch.ClassVec
	per[arch.FP64] = 640
	per[arch.Int] = 960
	per[arch.Branch] = 320
	per[arch.Ld] = 640
	per[arch.St] = 1
	shape := profile.LaunchShape{Grid: 400, Block: 256}
	threads := float64(shape.Threads())
	// A and B are re-read heavily through 16×16 shared-memory tiles, so only
	// 1/16 of the accesses reach L2; C is a streaming write.
	accesses := []cachemodel.Access{
		{Pattern: kpl.AccessSeq, Accesses: 320 * threads / 16, Elems: 102400, ElemSize: 8},
		{Pattern: kpl.AccessSeq, Accesses: 320 * threads / 16, Elems: 102400, ElemSize: 8},
		{Pattern: kpl.AccessSeq, Accesses: threads, Elems: 102400, ElemSize: 8},
	}
	return per, accesses, shape
}

// measure runs the device model to produce the "measured" profile on an
// architecture.
func measure(g *arch.GPU, perThread arch.ClassVec, accesses []cachemodel.Access, shape profile.LaunchShape) *profile.Profile {
	tm := hostgpu.KernelTiming(g, shape, perThread, accesses)
	sigma := perThread.Scale(float64(shape.Threads()))
	return &profile.Profile{
		Kernel:          "synthetic",
		Arch:            g.Name,
		Shape:           shape,
		Sigma:           sigma,
		Cycles:          tm.TotalCycles,
		ComputeCycles:   tm.ComputeCycles,
		DataStallCycles: tm.StallCycles,
		OverheadCycles:  tm.OverheadCycles,
		CacheAccesses:   tm.CacheAccesses,
		CacheMisses:     tm.CacheMisses,
		TimeSec:         tm.Seconds,
		EnergyJ:         hostgpu.KernelEnergy(g, sigma, tm),
	}
}

func inputsFor(host, target *arch.GPU) (*estimate.Inputs, *profile.Profile) {
	per, accesses, shape := matmulLike()
	hostProf := measure(host, per.Mul(host.Expand), accesses, shape)
	targetProf := measure(target, per.Mul(target.Expand), accesses, shape)
	in := &estimate.Inputs{
		Host:        host,
		Target:      target,
		HostProfile: hostProf,
		SigmaTarget: per.Mul(target.Expand).Scale(float64(shape.Threads())),
		Shape:       shape,
		Accesses:    accesses,
	}
	return in, targetProf
}

func TestValidate(t *testing.T) {
	q, tk := arch.Quadro4000(), arch.TegraK1()
	in, _ := inputsFor(&q, &tk)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *in
	bad.Host = nil
	if bad.Validate() == nil {
		t.Error("missing host accepted")
	}
	bad = *in
	bad.HostProfile = nil
	if bad.Validate() == nil {
		t.Error("missing profile accepted")
	}
	bad = *in
	bad.Shape = profile.LaunchShape{}
	if bad.Validate() == nil {
		t.Error("empty shape accepted")
	}
	bad = *in
	bad.SigmaTarget = arch.ClassVec{}
	if bad.Validate() == nil {
		t.Error("empty σ accepted")
	}
}

// TestEstimationLadder is the core Fig. 12 property: the refined estimates
// approach the measured target time monotonically, from both host GPUs.
func TestEstimationLadder(t *testing.T) {
	tegra := arch.TegraK1()
	for _, host := range arch.HostGPUs() {
		host := host
		in, targetProf := inputsFor(&host, &tegra)
		res, err := estimate.Estimate(in)
		if err != nil {
			t.Fatal(err)
		}
		truth := targetProf.TimeSec
		errC1 := math.Abs(res.TimeC1-truth) / truth
		errC2 := math.Abs(res.TimeC2-truth) / truth
		t.Logf("%s: truth=%.6f C=%.6f C'=%.6f C''=%.6f (err C'=%.1f%%, C''=%.1f%%)",
			host.Name, truth, res.TimeC, res.TimeC1, res.TimeC2, 100*errC1, 100*errC2)
		if errC2 > 0.30 {
			t.Errorf("%s: C″ error %.1f%% too large", host.Name, 100*errC2)
		}
		if errC2 > errC1+0.05 {
			t.Errorf("%s: C″ (%.3f) should not be materially worse than C′ (%.3f)", host.Name, errC2, errC1)
		}
	}
}

func TestCIsCrude(t *testing.T) {
	tegra := arch.TegraK1()
	q := arch.Quadro4000()
	in, _ := inputsFor(&q, &tegra)
	// C uses only peak IPC.
	want := in.SigmaTarget.Sum() / tegra.IPC
	if got := estimate.C(&tegra, in.SigmaTarget); got != want {
		t.Errorf("C = %v, want %v", got, want)
	}
}

func TestCPScalesWithLatency(t *testing.T) {
	q := arch.Quadro4000()
	shape := profile.LaunchShape{Grid: 100, Block: 256}
	var sigma arch.ClassVec
	sigma[arch.FP64] = 1e6
	base := estimate.CP(&q, sigma, shape)
	slower := q
	slower.Latency[arch.FP64] *= 2
	if got := estimate.CP(&slower, sigma, shape); math.Abs(got-2*base) > 1e-9 {
		t.Errorf("CP should scale with τ: %v vs %v", got, 2*base)
	}
	if estimate.CP(&q, sigma, profile.LaunchShape{}) != 0 {
		t.Error("empty shape CP should be 0")
	}
	// Small launches are not normalized beyond their own thread count.
	tiny := estimate.CP(&q, sigma, profile.LaunchShape{Grid: 1, Block: 32})
	if tiny != sigma.Dot(q.Latency)/32 {
		t.Errorf("tiny CP = %v", tiny)
	}
}

func TestUpsilonTargetExceedsHost(t *testing.T) {
	_, accesses, _ := matmulLike()
	q, tk := arch.Quadro4000(), arch.TegraK1()
	// Tegra's small cache must predict at least as many stall cycles per SM.
	if estimate.Upsilon(&tk, accesses) <= 0 {
		t.Error("target Υ should be positive")
	}
	if estimate.Upsilon(&q, accesses) <= 0 {
		t.Error("host Υ should be positive")
	}
}

func TestEstimateGuards(t *testing.T) {
	if _, err := estimate.Estimate(&estimate.Inputs{}); err == nil {
		t.Error("Estimate accepted empty inputs")
	}
}

func TestPowerComponents(t *testing.T) {
	tk := arch.TegraK1()
	var sigma arch.ClassVec
	sigma[arch.FP32] = 1e9
	cycles := 1e9 // ≈1.17s on Tegra
	p := estimate.Power(&tk, sigma, cycles)
	et := cycles / tk.ClockHz()
	want := tk.StaticPowerW + 1e9*tk.EnergyPerInstr[arch.FP32]/et
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("Power = %v, want %v", p, want)
	}
	// Degenerate cycles → static power only.
	if estimate.Power(&tk, sigma, 0) != tk.StaticPowerW {
		t.Error("zero-cycle power should be static")
	}
}

// TestPowerCloseToMeasured is the Fig. 13 property: Eq. 6 lands within ~10%
// of the device model's measured power.
func TestPowerCloseToMeasured(t *testing.T) {
	tegra := arch.TegraK1()
	for _, host := range arch.HostGPUs() {
		host := host
		in, targetProf := inputsFor(&host, &tegra)
		res, err := estimate.Estimate(in)
		if err != nil {
			t.Fatal(err)
		}
		truth := targetProf.PowerW()
		relErr := math.Abs(res.PowerW-truth) / truth
		t.Logf("%s: measured %.3fW, estimated %.3fW (%.1f%%)", host.Name, truth, res.PowerW, 100*relErr)
		if relErr > 0.25 {
			t.Errorf("%s: power error %.1f%% too large", host.Name, 100*relErr)
		}
	}
}

func TestResultString(t *testing.T) {
	q, tk := arch.Quadro4000(), arch.TegraK1()
	in, _ := inputsFor(&q, &tk)
	res, err := estimate.Estimate(in)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"Eq. 2", "Eq. 4", "Eq. 5", "Eq. 6", "Tegra K1", "Quadro 4000"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String missing %q:\n%s", want, s)
		}
	}
}
