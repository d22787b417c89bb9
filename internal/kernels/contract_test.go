package kernels

import (
	"testing"

	"repro/internal/devmem"
)

// TestWorkloadsKeepLaunchContract: every registry workload, as every harness
// launches it (NewLaunch, one binding per BufBytes entry), keeps the launch
// contract the service and the emulated device refuse launches by
// (hostgpu.Launch.Check), so no valid guest launch is refused at the door.
func TestWorkloadsKeepLaunchContract(t *testing.T) {
	for _, b := range All() {
		for _, scale := range []int{1, 2, 4} {
			w := b.MakeWorkload(scale)
			l := b.NewLaunch(w)
			l.Bindings = map[string]devmem.Ptr{}
			for name := range w.BufBytes {
				l.Bindings[name] = devmem.Ptr(len(l.Bindings) + 1)
			}
			if err := l.Check(); err != nil {
				t.Errorf("%s at scale %d: %v", b.Name, scale, err)
			}
		}
	}
}
