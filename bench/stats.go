package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"syscall"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 for an empty slice. The input is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty slice. The input is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b with 0 for an empty denominator, so a layer that did no work
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) >= 2 {
			kb, _ := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds returns the user+system CPU time this process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostCounters reads the allocator and CPU counters behind the host.*
// metrics: process CPU seconds, heap objects and bytes allocated so far, and
// the CPU seconds the garbage collector has used.
func hostCounters() (cpu float64, mallocs, allocBytes uint64, gcCPU float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	return cpuSeconds(), ms.Mallocs, ms.TotalAlloc, gcCPU
}

// hostMetrics fills the host.* per-layer metrics from the counters at the
// edges of a window in which ops operations completed.
func hostMetrics(m map[string]float64, from, to mark, ops float64) {
	cpu := to.cpu - from.cpu
	m["host.alloc_kb_per_op"] = ratio(float64(to.alloc-from.alloc)/1024, ops)
	m["host.mallocs_per_op"] = ratio(float64(to.mallocs-from.mallocs), ops)
	m["host.gc_cpu_frac"] = ratio(to.gcCPU-from.gcCPU, cpu)
	m["host.cpu_s_per_kop"] = ratio(cpu, ops/1e3)
}

// hostMark reads the host counters into a window edge.
func hostMark() mark {
	var m mark
	m.cpu, m.mallocs, m.alloc, m.gcCPU = hostCounters()
	return m
}
