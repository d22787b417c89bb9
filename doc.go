// Package repro is a from-scratch Go reproduction of "ΣVP: Host-GPU
// Multiplexing for Efficient Simulation of Multiple Embedded GPUs on
// Virtual Platforms" (Jung & Carloni, DAC 2015).
//
// # Architecture
//
// The stack mirrors the paper's Fig. 2, bottom-up:
//
//   - internal/kpl and internal/kir — the kernel languages. KPL is a small
//     CUDA-like kernel programming language; kernels compile to KIR, a
//     register IR the device model interprets and the analytic models count
//     instructions over. internal/kernels is the registry of the paper's
//     benchmark kernels (vectorAdd, BlackScholes, scalarProd, reduction,
//     matrixMul).
//   - internal/hostgpu — the simulated host GPU: a discrete-event device
//     model with copy/compute engines, SM timing, per-stream clocks, and
//     the devmem arena (internal/devmem) for device memory.
//   - internal/core — the ΣVP host service multiplexing that device among
//     VPs: Job Queue and Re-scheduler (internal/sched, Kernel
//     Interleaving), Kernel Coalescing (internal/coalesce), VP Control
//     batching, admission control, multi-device farms with placement
//     policies, and VP checkpoint/restore with live migration across
//     devices (DESIGN.md §15).
//   - internal/ipc — the IPC Manager: in-process and TCP transports, one
//     binary wire protocol with request pipelining, typed overload and
//     farm-admin (migrate/checkpoint) frames.
//   - internal/cudart — the CUDA-like guest runtime a VP's applications
//     program against, with in-process, emulation, and remote (IPC)
//     backends; internal/vp models the virtual platform itself.
//
// Estimation rides alongside: internal/estimate implements the
// profile-based time/power analysis of Section 4 over profiles
// (internal/profile) emitted by the device model, refined by the
// probabilistic cache model (internal/cachemodel); internal/cpumodel times
// the CPU baselines of Table 1; internal/emul is the device-emulation
// baseline.
//
// internal/experiments regenerates every table and figure of the
// evaluation plus the robustness drills (faults, overload, migrate,
// checkpoint); bench_test.go in this directory wraps each experiment as a
// testing.B benchmark. cmd/sigmavp is the experiment CLI; cmd/sigmavpd is
// the serving daemon (TCP farm, observability endpoint, checkpoint/restore).
// internal/metrics and internal/trace are the observability substrates;
// internal/docscheck is the CI docs gate.
//
// See README.md for the user-facing overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for paper-vs-
// measured results.
package repro
