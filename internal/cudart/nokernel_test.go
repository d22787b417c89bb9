package cudart_test

import (
	"net"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
)

// TestRemoteLaunchWithoutKernel: a launch that names no kernel, or a kernel
// without its analyzed program, is refused with an error by the remote back
// end and by the farm's in-process one — before anything dereferences it.
func TestRemoteLaunchWithoutKernel(t *testing.T) {
	farm, err := core.NewMultiService(core.DefaultOptions(), []arch.GPU{arch.Quadro4000()})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	vecAdd, err := kernels.Get("vectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.ServeEndpoint(l, farm)
	defer srv.Close()
	c, err := ipc.Dial(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	remote := cudart.NewRemoteBackend(c)
	defer remote.Close()
	for name, b := range map[string]cudart.Backend{"remote": remote, "in-process": farm.Backend(1)} {
		if err := cudart.NewContext(1, b).LaunchKernel(&hostgpu.Launch{}); err == nil {
			t.Errorf("%s: kernel-less launch accepted", name)
		}
	}
	// Remote launches travel by name; in process the program must come along.
	noProg := &hostgpu.Launch{Kernel: vecAdd.Kernel, Grid: 1, Block: 1}
	if err := cudart.NewContext(1, farm.Backend(1)).LaunchKernel(noProg); err == nil {
		t.Error("in-process: launch without an analyzed program accepted")
	}
}
