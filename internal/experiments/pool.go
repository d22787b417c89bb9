package experiments

import (
	"runtime"
	"sync"

	"repro/internal/par"
)

// The concurrent experiment harness: independent (benchmark × config) cells
// of a study run on a bounded worker pool. Every cell builds its own device
// instances, so cells share nothing; results land in preallocated slots
// indexed by cell, which keeps output ordering — and therefore every emitted
// number — byte-identical to the serial harness for any worker count.

var (
	workerMu    sync.RWMutex
	workerCount = runtime.NumCPU()
)

// SetWorkers sizes the harness worker pool (and is what the -workers flag on
// cmd/sigmavp and the bench suite control). n <= 0 restores runtime.NumCPU();
// n == 1 runs every study serially.
func SetWorkers(n int) {
	workerMu.Lock()
	defer workerMu.Unlock()
	if n <= 0 {
		n = runtime.NumCPU()
	}
	workerCount = n
}

// Workers returns the current harness pool size.
func Workers() int {
	workerMu.RLock()
	defer workerMu.RUnlock()
	return workerCount
}

// forEach runs fn(0) … fn(n-1) on the harness pool (par.ForEach over
// Workers() goroutines): the lowest-index error is returned, and fn must
// write its result into a caller-owned slot for index i.
func forEach(n int, fn func(i int) error) error {
	return par.ForEach(n, Workers(), fn)
}
