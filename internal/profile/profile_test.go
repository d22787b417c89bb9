package profile

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

func sample() *Profile {
	return &Profile{
		Kernel:          "matrixMul",
		Arch:            "Quadro 4000",
		Shape:           LaunchShape{Grid: 400, Block: 256},
		Sigma:           arch.ClassVec{100, 200, 50, 10, 40, 120, 30},
		Cycles:          1000,
		ComputeCycles:   700,
		DataStallCycles: 200,
		OverheadCycles:  100,
		CacheAccesses:   150,
		CacheMisses:     15,
		TimeSec:         0.5,
		EnergyJ:         10,
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := sample()
	if p.Shape.Threads() != 400*256 {
		t.Errorf("Threads = %d", p.Shape.Threads())
	}
	if p.TotalInstr() != 550 {
		t.Errorf("TotalInstr = %v", p.TotalInstr())
	}
	if p.IPC() != 0.55 {
		t.Errorf("IPC = %v", p.IPC())
	}
	if p.MissRate() != 0.1 {
		t.Errorf("MissRate = %v", p.MissRate())
	}
	if p.PowerW() != 20 {
		t.Errorf("PowerW = %v", p.PowerW())
	}
}

func TestZeroDivisionGuards(t *testing.T) {
	var p Profile
	if p.IPC() != 0 || p.MissRate() != 0 || p.PowerW() != 0 {
		t.Error("zero profile should yield zero derived quantities")
	}
}

func TestAddAccumulates(t *testing.T) {
	p := sample()
	q := sample()
	p.Add(q)
	if p.Cycles != 2000 || p.TimeSec != 1.0 || p.EnergyJ != 20 {
		t.Errorf("Add wrong: cycles=%v time=%v energy=%v", p.Cycles, p.TimeSec, p.EnergyJ)
	}
	if p.Sigma[arch.FP64] != 400 {
		t.Errorf("Sigma not accumulated: %v", p.Sigma[arch.FP64])
	}
	if p.CacheMisses != 30 || p.DataStallCycles != 400 {
		t.Error("stall/cache not accumulated")
	}
}

func TestStringRendering(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"matrixMul", "Quadro 4000", "FP64", "cycles", "cache", "power"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}
