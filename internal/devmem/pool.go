package devmem

import (
	"math/bits"
	"runtime"
	"sync"
)

// The buffer pool feeds both ways bytes enter an allocation without being
// copied into it — an adopted H2D payload (Adopt) and a committed writable copy
// (Commit) — and takes back the backings they displace. Size classes keep four
// significant bits, so a buffer is at most an eighth larger than asked for.
// Per-class stacks under one lock make a buffer released on one goroutine
// visible at once to a draw on any other, which a sync.Pool's per-P slots are
// not; like a sync.Pool, the pool ages one generation per garbage collection
// and drops what sat idle through two.
var pool struct {
	mu           sync.Mutex
	free, victim [64 * 8][][]byte
}

// minPooled is the smallest slice the pool recycles.
const minPooled = 256

func init() { trimAtGC() }

// trimAtGC ages the pool at the next collection and re-arms itself: an
// unreferenced object's finalizer runs once per cycle.
func trimAtGC() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		pool.mu.Lock()
		for c := range pool.free {
			clear(pool.victim[c])
			pool.victim[c], pool.free[c] = pool.free[c], pool.victim[c][:0]
		}
		pool.mu.Unlock()
		trimAtGC()
	})
}

// gcTick holds a pointer, so the tiny allocator never batches one.
type gcTick struct{ _ *byte }

// sizeClass rounds n up to its class: the class's index and capacity.
func sizeClass(n int) (int, int) {
	e := bits.Len(uint(n-1)) - 4
	m := (n-1)>>e + 1 // 9..16
	return e*8 + m - 9, m << e
}

// getBytes returns n bytes of arbitrary content from the pool.
func getBytes(n int) []byte {
	if n < minPooled {
		return make([]byte, n)
	}
	c, size := sizeClass(n)
	pool.mu.Lock()
	b := pop(&pool.free[c])
	if b == nil {
		b = pop(&pool.victim[c])
	}
	pool.mu.Unlock()
	if b == nil {
		return make([]byte, n, size)
	}
	return b[:n]
}

func pop(l *[][]byte) []byte {
	n := len(*l)
	if n == 0 {
		return nil
	}
	b := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return b
}

// putBytes files b under the largest class its capacity serves. The caller
// must hold the only reference to b's bytes.
func putBytes(b []byte) {
	n := cap(b)
	if n < minPooled {
		return
	}
	e := bits.Len(uint(n)) - 4
	c, _ := sizeClass(n >> e << e)
	pool.mu.Lock()
	pool.free[c] = append(pool.free[c], b[:0])
	pool.mu.Unlock()
}

// Payload is a byte slice on loan from the pool, held by pointer so that an
// allocation adopting it (Adopt) can leave the backing it displaced in its
// place. Its holder releases it, adopted or not.
type Payload struct{ B []byte }

// NewPayload draws n bytes of arbitrary content from the pool.
func NewPayload(n int) *Payload { return &Payload{B: getBytes(n)} }

// Release returns whatever B holds to the pool; nothing may use it afterwards.
func (p *Payload) Release() {
	putBytes(p.B)
	p.B = nil
}
