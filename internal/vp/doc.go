// Package vp models a virtual platform instance: a QEMU-style guest machine
// with a binary-translated ARM CPU, a local simulated clock, and a virtual
// embedded GPU exposed to guest applications through a cudart context. Guest
// applications are ordinary Go functions over the context — the same
// application runs on the emulation back end and on the ΣVP back end without
// change.
//
// A VP has no stop switch of its own. The paper's synchronization mechanism,
// VP Control (Fig. 4b), is the host service's: a VP blocked at a synchronous
// runtime invocation counts as *stopped* (core.Service.WaitJob), and the
// service dispatches the accumulated job batch only when every registered VP
// has stopped, keeping simulated clocks causally consistent across the fleet.
package vp
