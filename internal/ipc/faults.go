package ipc

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// FaultConfig describes deterministic fault injection on a transport
// connection. All probabilities are in [0, 1] and are rolled with a rand
// source seeded from Seed, so a given (config, call sequence) pair always
// produces the same fault schedule — tests and the `sigmavp -faults` drill
// are reproducible.
//
// Faults are injected on the write path (plus read-side delay):
//
//   - Drop: the written frame is silently discarded — the peer never sees
//     it, and the caller's per-call deadline fires.
//   - Delay: the write (or read) is stalled by a random duration up to
//     MaxDelay before proceeding.
//   - Corrupt: a byte in the frame's header region (length prefix, type
//     byte, request id) is flipped. The peer either rejects the frame and
//     closes the connection rather than answer on it, or answers under an
//     id no call is waiting for; either way the caller sees a typed,
//     retryable transport error, never another call's reply.
//   - Disconnect: the connection is severed instead of writing.
//
// Payload checksums are deliberately out of scope: frames carry request IDs,
// not CRCs, so a flipped byte that lands inside a payload and still decodes
// would be delivered as-is. Corruption therefore targets the header bytes,
// where it reliably breaks framing (see DESIGN.md §8).
type FaultConfig struct {
	Seed       int64
	Drop       float64
	Delay      float64
	MaxDelay   time.Duration
	Corrupt    float64
	Disconnect float64
}

func (c FaultConfig) enabled() bool {
	return c.Drop > 0 || c.Delay > 0 || c.Corrupt > 0 || c.Disconnect > 0
}

// ParseFaults parses a "key=value,key=value" fault spec, e.g.
// "seed=7,drop=0.05,delay=0.2,maxdelay=5ms,corrupt=0.02,disconnect=0.01".
// Unknown keys are rejected. MaxDelay defaults to 2ms when a delay
// probability is given without one.
func ParseFaults(spec string) (FaultConfig, error) {
	cfg := FaultConfig{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("ipc: fault spec %q: want key=value", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("ipc: fault seed %q: %v", val, err)
			}
			cfg.Seed = n
		case "maxdelay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return cfg, fmt.Errorf("ipc: fault maxdelay %q: %v", val, err)
			}
			cfg.MaxDelay = d
		case "drop", "delay", "corrupt", "disconnect":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return cfg, fmt.Errorf("ipc: fault probability %s=%q: want a number in [0,1]", key, val)
			}
			switch key {
			case "drop":
				cfg.Drop = p
			case "delay":
				cfg.Delay = p
			case "corrupt":
				cfg.Corrupt = p
			case "disconnect":
				cfg.Disconnect = p
			}
		default:
			return cfg, fmt.Errorf("ipc: unknown fault key %q", key)
		}
	}
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return cfg, nil
}

// faultConn wraps a net.Conn and injects the configured faults. Writes and
// reads on a client connection are serialized by the client's call lock, so
// the single seeded source yields a deterministic fault schedule.
type faultConn struct {
	net.Conn
	cfg FaultConfig
	m   *metrics.Registry // nil-safe: counters degrade to no-ops
	mu  sync.Mutex
	rng *rand.Rand
}

// WrapFaultyMetrics wraps conn with deterministic fault injection, counting
// each injected fault (ipc.faults.drop / corrupt / disconnect / delay) in m
// (nil counts nothing). A config with all probabilities zero returns conn
// unchanged.
func WrapFaultyMetrics(conn net.Conn, cfg FaultConfig, m *metrics.Registry) net.Conn {
	if !cfg.enabled() {
		return conn
	}
	return &faultConn{Conn: conn, cfg: cfg, m: m, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// roll draws the fault decisions for one I/O operation.
func (f *faultConn) roll() (drop, corrupt, disconnect bool, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.Disconnect > 0 && f.rng.Float64() < f.cfg.Disconnect {
		disconnect = true
	}
	if f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop {
		drop = true
	}
	if f.cfg.Corrupt > 0 && f.rng.Float64() < f.cfg.Corrupt {
		corrupt = true
	}
	if f.cfg.Delay > 0 && f.rng.Float64() < f.cfg.Delay {
		delay = time.Duration(f.rng.Int63n(int64(f.cfg.MaxDelay) + 1))
	}
	return
}

// corruptIndex picks the header byte to flip (always within the first 8
// bytes: the 4-byte length prefix, the type byte, and the request id).
func (f *faultConn) corruptIndex(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	limit := n
	if limit > 8 {
		limit = 8
	}
	return f.rng.Intn(limit)
}

func (f *faultConn) Write(b []byte) (int, error) {
	drop, corrupt, disconnect, delay := f.roll()
	if delay > 0 {
		f.m.Counter("ipc.faults.delay").Inc()
		time.Sleep(delay)
	}
	if disconnect {
		f.m.Counter("ipc.faults.disconnect").Inc()
		f.Conn.Close()
		return 0, &DisconnectError{Op: "write", Cause: fmt.Errorf("injected disconnect fault")}
	}
	if drop {
		// Pretend the frame was written; the peer never sees it.
		f.m.Counter("ipc.faults.drop").Inc()
		return len(b), nil
	}
	if corrupt && len(b) > 0 {
		f.m.Counter("ipc.faults.corrupt").Inc()
		mangled := make([]byte, len(b))
		copy(mangled, b)
		mangled[f.corruptIndex(len(b))] ^= 0xFF
		return f.Conn.Write(mangled)
	}
	return f.Conn.Write(b)
}

// readDelay rolls only the delay fault — reads never drop or corrupt, or
// the injector itself would desynchronize the client's decoder.
func (f *faultConn) readDelay() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.Delay > 0 && f.rng.Float64() < f.cfg.Delay {
		return time.Duration(f.rng.Int63n(int64(f.cfg.MaxDelay) + 1))
	}
	return 0
}

func (f *faultConn) Read(b []byte) (int, error) {
	if delay := f.readDelay(); delay > 0 {
		f.m.Counter("ipc.faults.delay").Inc()
		time.Sleep(delay)
	}
	return f.Conn.Read(b)
}
