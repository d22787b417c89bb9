package vp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cudart"
	"repro/internal/emul"
)

func newVP(t *testing.T, id int) *VP {
	t.Helper()
	d := emul.New(arch.ARMVersatile(), 1<<22)
	return New(id, arch.ARMVersatile(), cudart.NewContext(id, cudart.NewEmulBackend(d)))
}

func TestClockAdvancesWithCPUWork(t *testing.T) {
	v := newVP(t, 0)
	if v.Clock() != 0 {
		t.Fatal("fresh clock not zero")
	}
	v.RunCPU(2.9e9) // ~1s of native work × BT slowdown
	if v.Clock() <= 1 {
		t.Errorf("binary-translated CPU second should exceed 1s wall: %v", v.Clock())
	}
	before := v.Clock()
	v.Advance(-5) // ignored
	if v.Clock() != before {
		t.Error("negative advance should be ignored")
	}
	v.SyncTo(before - 1) // backwards sync ignored
	if v.Clock() != before {
		t.Error("backwards sync should be ignored")
	}
	v.SyncTo(before + 3)
	if v.Clock() != before+3 {
		t.Error("forward sync should apply")
	}
}

func TestRunNilApp(t *testing.T) {
	v := newVP(t, 1)
	if err := v.Run(nil); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestRunAppErrorWrapped(t *testing.T) {
	v := newVP(t, 7)
	boom := errors.New("boom")
	err := v.Run(func(*VP) error { return boom })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not wrapped: %v", err)
	}
}

func TestFleetRunsAll(t *testing.T) {
	seen := make([]bool, 4)
	f := NewFleet(4, arch.ARMVersatile(), func(id int) *cudart.Context {
		d := emul.New(arch.ARMVersatile(), 1<<20)
		return cudart.NewContext(id, cudart.NewEmulBackend(d))
	})
	if len(f.VPs) != 4 {
		t.Fatalf("fleet size %d", len(f.VPs))
	}
	err := f.Run(func(v *VP) error {
		seen[v.ID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, ok := range seen {
		if !ok {
			t.Errorf("vp%d did not run", id)
		}
	}
}

// TestFleetAggregatesAllErrors: a multi-VP failure must report every
// failing VP, not just the first — the errors are joined, and each carries
// its VP's identity.
func TestFleetAggregatesAllErrors(t *testing.T) {
	f := NewFleet(3, arch.ARMVersatile(), func(id int) *cudart.Context {
		d := emul.New(arch.ARMVersatile(), 1<<20)
		return cudart.NewContext(id, cudart.NewEmulBackend(d))
	})
	boom0 := errors.New("boom zero")
	boom2 := errors.New("boom two")
	err := f.Run(func(v *VP) error {
		switch v.ID {
		case 0:
			return boom0
		case 2:
			return boom2
		}
		return nil
	})
	if err == nil {
		t.Fatal("two-VP failure reported success")
	}
	if !errors.Is(err, boom0) || !errors.Is(err, boom2) {
		t.Fatalf("aggregate lost a failure: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "vp0") || !strings.Contains(msg, "vp2") {
		t.Fatalf("aggregate does not name both VPs: %q", msg)
	}
}

func TestFleetPropagatesError(t *testing.T) {
	f := NewFleet(3, arch.ARMVersatile(), func(id int) *cudart.Context {
		d := emul.New(arch.ARMVersatile(), 1<<20)
		return cudart.NewContext(id, cudart.NewEmulBackend(d))
	})
	boom := errors.New("boom")
	err := f.Run(func(v *VP) error {
		if v.ID == 1 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("fleet error not propagated: %v", err)
	}
}

// TestClockTracksGPUCompletion: synchronous GPU waits advance the VP's
// local clock to the device's simulated completion time (loosely-timed
// co-simulation).
func TestClockTracksGPUCompletion(t *testing.T) {
	d := emul.New(arch.ARMVersatile(), 1<<22)
	ctx := cudart.NewContext(0, cudart.NewEmulBackend(d))
	v := New(0, arch.ARMVersatile(), ctx)
	if v.Clock() != 0 {
		t.Fatal("clock not zero")
	}
	p, err := ctx.Malloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2D(p, make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if v.Clock() <= 0 {
		t.Fatalf("clock did not advance with the copy: %v", v.Clock())
	}
	if got, want := v.Clock(), d.Now(); got != want {
		t.Fatalf("clock %v, device time %v", got, want)
	}
}
