//go:build !race

// Package raceflag tells tests whether the race detector is on. Its
// instrumentation perturbs allocation counts, and under it sync.Pool drops a
// quarter of what is Put, so pins on allocations or on pooled-buffer reuse
// skip themselves.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
