package arch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	want := map[InstrClass]string{
		FP32: "FP32", FP64: "FP64", Int: "Int", Bit: "Bit",
		Branch: "B", Ld: "Ld", St: "St",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("class %d: got %q, want %q", int(c), c.String(), s)
		}
	}
	if got := InstrClass(99).String(); got != "InstrClass(99)" {
		t.Errorf("out-of-range class: got %q", got)
	}
}

func TestClasses(t *testing.T) {
	cs := Classes()
	if len(cs) != int(NumClasses) {
		t.Fatalf("Classes() returned %d entries, want %d", len(cs), NumClasses)
	}
	for i, c := range cs {
		if int(c) != i {
			t.Errorf("Classes()[%d] = %v", i, c)
		}
	}
}

func TestClassVecAlgebra(t *testing.T) {
	v := ClassVec{1, 2, 3, 4, 5, 6, 7}
	w := ClassVec{7, 6, 5, 4, 3, 2, 1}
	sum := v.Add(w)
	for i := range sum {
		if sum[i] != 8 {
			t.Fatalf("Add[%d] = %v, want 8", i, sum[i])
		}
	}
	if got := v.Scale(2).Sum(); got != 2*v.Sum() {
		t.Fatalf("Scale(2).Sum() = %v", got)
	}
	if got := v.Dot(w); got != 1*7+2*6+3*5+4*4+5*3+6*2+7*1 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Mul(w)[0]; got != 7 {
		t.Fatalf("Mul[0] = %v", got)
	}
}

// Property: Dot is bilinear in its first argument under Add and Scale.
func TestClassVecDotLinearity(t *testing.T) {
	f := func(a, b, c [NumClasses]float64, s float64) bool {
		// Constrain inputs to avoid inf/NaN noise from quick.
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) ||
				math.IsNaN(b[i]) || math.IsInf(b[i], 0) ||
				math.IsNaN(c[i]) || math.IsInf(c[i], 0) {
				return true
			}
			a[i] = math.Mod(a[i], 1e3)
			b[i] = math.Mod(b[i], 1e3)
			c[i] = math.Mod(c[i], 1e3)
		}
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		s = math.Mod(s, 1e3)
		va, vb, vc := ClassVec(a), ClassVec(b), ClassVec(c)
		lhs := va.Add(vb).Dot(vc)
		rhs := va.Dot(vc) + vb.Dot(vc)
		if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(lhs)) {
			return false
		}
		lhs = va.Scale(s).Dot(vc)
		rhs = s * va.Dot(vc)
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, g := range []GPU{Quadro4000(), GridK520(), TegraK1()} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
	for _, c := range []CPU{HostXeon(), ARMVersatile()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestGPUValidateRejectsBadDescriptors(t *testing.T) {
	good := Quadro4000()
	cases := []struct {
		name   string
		mutate func(*GPU)
	}{
		{"empty name", func(g *GPU) { g.Name = "" }},
		{"zero SMs", func(g *GPU) { g.SMCount = 0 }},
		{"zero clock", func(g *GPU) { g.ClockMHz = 0 }},
		{"zero IPC", func(g *GPU) { g.IPC = 0 }},
		{"zero copy BW", func(g *GPU) { g.CopyBWGBps = 0 }},
		{"zero line", func(g *GPU) { g.LineBytes = 0 }},
		{"zero latency", func(g *GPU) { g.Latency[FP64] = 0 }},
		{"zero expand", func(g *GPU) { g.Expand[Int] = 0 }},
	}
	for _, tc := range cases {
		g := good
		tc.mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad descriptor", tc.name)
		}
	}
}

func TestCPUValidateRejectsBadDescriptors(t *testing.T) {
	good := HostXeon()
	cases := []struct {
		name   string
		mutate func(*CPU)
	}{
		{"empty name", func(c *CPU) { c.Name = "" }},
		{"zero clock", func(c *CPU) { c.ClockMHz = 0 }},
		{"zero CPI", func(c *CPU) { c.ScalarCPI = 0 }},
		{"sub-1 BT", func(c *CPU) { c.BTEmulSlowdown = 0.5 }},
	}
	for _, tc := range cases {
		c := good
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad descriptor", tc.name)
		}
	}
}

func TestResidentBlocks(t *testing.T) {
	g := Quadro4000()
	// 512-thread blocks: limited by threads (1536/512 = 3).
	if got := g.ResidentBlocks(512, 0, 0); got != 3 {
		t.Errorf("ResidentBlocks(512) = %d, want 3", got)
	}
	// Tiny blocks: limited by MaxBlocksPerSM.
	if got := g.ResidentBlocks(32, 0, 0); got != g.MaxBlocksPerSM {
		t.Errorf("ResidentBlocks(32) = %d, want %d", got, g.MaxBlocksPerSM)
	}
	// Shared memory limit: 48K per block allows exactly 1.
	if got := g.ResidentBlocks(128, 48*1024, 0); got != 1 {
		t.Errorf("ResidentBlocks shmem-bound = %d, want 1", got)
	}
	// Register limit: 64 regs × 512 threads = 32768 = whole file, so 1.
	if got := g.ResidentBlocks(512, 0, 64); got != 1 {
		t.Errorf("ResidentBlocks reg-bound = %d, want 1", got)
	}
	// Degenerate block always yields at least 1.
	if got := g.ResidentBlocks(0, 0, 0); got != 1 {
		t.Errorf("ResidentBlocks(0) = %d, want 1", got)
	}
	// Oversized block still yields at least 1.
	if got := g.ResidentBlocks(4096, 0, 0); got != 1 {
		t.Errorf("ResidentBlocks(4096) = %d, want 1", got)
	}
}

func TestIssuePerSM(t *testing.T) {
	g := Quadro4000()
	if got := g.IssuePerSM(); got != 1.0 {
		t.Errorf("Quadro IssuePerSM = %v, want 1.0", got)
	}
	k := GridK520()
	if got := k.IssuePerSM(); got != 6.0 {
		t.Errorf("K520 IssuePerSM = %v, want 6.0", got)
	}
}

func TestHostGPUs(t *testing.T) {
	hs := HostGPUs()
	if len(hs) != 2 {
		t.Fatalf("HostGPUs returned %d entries", len(hs))
	}
	if hs[0].Name != "Quadro 4000" || hs[1].Name != "Grid K520" {
		t.Errorf("unexpected host GPU names: %s, %s", hs[0].Name, hs[1].Name)
	}
}

func TestArchDifferencesDriveEstimation(t *testing.T) {
	// The estimation ladder relies on hosts and target differing in the
	// right directions.
	q, k, tk := Quadro4000(), GridK520(), TegraK1()
	if !(tk.SMCount < q.SMCount && tk.SMCount < k.SMCount) {
		t.Error("target should have fewer SMs than hosts")
	}
	if !(tk.L2KiB < q.L2KiB) {
		t.Error("target cache should be smaller than host cache")
	}
	if !(tk.StaticPowerW < q.StaticPowerW) {
		t.Error("target static power should be below host")
	}
	if !(tk.Expand[FP64] > q.Expand[FP64]) {
		t.Error("target FP64 expansion should exceed Fermi host")
	}
}
