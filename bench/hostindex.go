package main

import "time"

// The sandbox this benchmark must be steady on is not steady itself: the same
// binary reads 10–30 % faster or slower from one quarter of an hour to the
// next, and the shifts come and go within seconds. Forty-five minutes of
// alternating probes and workload runs showed what tracks them: not a
// dependent multiply chain (correlation 0.1), somewhat four independent
// chains or a large memcpy (0.3–0.4), best a loop that allocates small
// objects into a map (0.45–0.6) — the host's noise is pressure on the memory
// hierarchy, which is also what the simulator's hot paths lean on. Dividing
// each child's timings by that loop's time around it cut the spread between
// runs (quartile distance of medians of nine children) from 8–9 % to 3–6 %
// on every workload tried. So end-to-end timings are reported at reference
// host speed: seconds in which the host ran the loop at hostIndexRef.

// hostIndexRef is the loop's time on this box in a typical quarter of an
// hour, so that scaled and raw readings agree when the host is typical.
const hostIndexRef = 17.0 // ms

var hostIndexSink int

// hostIndexBallast keeps the parent's heap as large as it was in the
// experiment above (it held two 16 MiB copy buffers), so the collector runs
// about once per loop instead of a dozen times and the loop times the
// allocator and the map, as it did there.
var hostIndexBallast []byte

func hostIndexOnce() float64 {
	if hostIndexBallast == nil {
		hostIndexBallast = make([]byte, 32<<20)
		for i := range hostIndexBallast {
			hostIndexBallast[i] = byte(i)
		}
	}
	t := time.Now()
	m := map[int][]byte{}
	for i := 0; i < 150000; i++ {
		m[i%5000] = make([]byte, 64+i%512)
	}
	hostIndexSink += len(m)
	return time.Since(t).Seconds() * 1e3
}

// hostIndex is the median of five runs of the loop, in ms.
func hostIndex() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		ts = append(ts, hostIndexOnce())
	}
	return median(ts)
}

// atReferenceSpeed scales a reading taken while the host ran the loop in idx
// ms to what it would read at hostIndexRef: durations shrink when the host
// was slow, rates grow, everything else (counts, bytes) is left alone.
func atReferenceSpeed(v float64, unit string, idx float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * hostIndexRef / idx
	case "1/s", "Minstr/s", "MB/s":
		return v * idx / hostIndexRef
	}
	return v
}
