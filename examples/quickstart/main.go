// Quickstart: the smallest complete ΣVP program.
//
// One virtual platform runs a vectorAdd guest application twice — first on
// the GPU-emulation back end (the slow baseline of the paper's Fig. 1a),
// then through the ΣVP host-GPU service (Fig. 1b) — and verifies that both
// back ends produce identical results while ΣVP is orders of magnitude
// faster in simulated time.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/emul"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kpl"
	"repro/internal/vp"
)

const n = 4096

// app is the guest application — note that it is written once against the
// cudart API and runs unchanged on either back end (the paper's binary
// compatibility).
func app(v *vp.VP) error {
	bench, err := kernels.Get("vectorAdd")
	if err != nil {
		return err
	}
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}

	pa, err := v.Ctx.Malloc(4 * n)
	if err != nil {
		return err
	}
	pb, err := v.Ctx.Malloc(4 * n)
	if err != nil {
		return err
	}
	po, err := v.Ctx.Malloc(4 * n)
	if err != nil {
		return err
	}
	if err := v.Ctx.MemcpyH2D(pa, devmem.EncodeF32(a)); err != nil {
		return err
	}
	if err := v.Ctx.MemcpyH2D(pb, devmem.EncodeF32(b)); err != nil {
		return err
	}

	launch := &hostgpu.Launch{
		Kernel: bench.Kernel,
		Prog:   bench.Prog,
		Grid:   (n + 511) / 512,
		Block:  512,
		Params: map[string]kpl.Value{"n": kpl.IntVal(n)},
		Bindings: map[string]devmem.Ptr{
			"a": pa, "b": pb, "out": po,
		},
		Native: bench.Native,
	}
	if err := v.Ctx.LaunchKernel(launch); err != nil {
		return err
	}
	raw, err := v.Ctx.MemcpyD2H(po, 4*n)
	if err != nil {
		return err
	}
	out := devmem.DecodeF32(raw)
	for i := range out {
		if out[i] != a[i]+b[i] {
			return fmt.Errorf("out[%d] = %v, want %v", i, out[i], a[i]+b[i])
		}
	}
	fmt.Printf("  vp%d: %d elements verified\n", v.ID, n)
	return nil
}

func main() {
	// Back end 1: GPU software emulation on the VP's binary-translated CPU.
	dev := emul.New(arch.ARMVersatile(), 1<<24)
	v := vp.New(0, arch.ARMVersatile(), cudart.NewContext(0, cudart.NewEmulBackend(dev)))
	fmt.Println("GPU emulation on the VP:")
	if err := v.Run(app); err != nil {
		log.Fatal(err)
	}
	emulSec := dev.Now()
	fmt.Printf("  simulated time: %.3f ms\n\n", emulSec*1e3)

	// Back end 2: the ΣVP host-GPU service.
	svc, err := core.NewMultiService(core.DefaultOptions(), []arch.GPU{arch.Quadro4000()})
	if err != nil {
		log.Fatal(err)
	}
	svc.RegisterVP(1)
	v2 := vp.New(1, arch.ARMVersatile(), cudart.NewContext(1, svc.Backend(1)))
	fmt.Println("ΣVP host-GPU multiplexing:")
	if err := v2.Run(svc.WrapApp(app)); err != nil {
		log.Fatal(err)
	}
	svc.Flush()
	sigmaSec := svc.Sync()
	fmt.Printf("  simulated time: %.3f ms\n\n", sigmaSec*1e3)

	fmt.Printf("ΣVP speedup over emulation: %.0f×\n", emulSec/sigmaSec)
}
