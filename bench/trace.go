package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
)

// Span names. One guest request produces cudart.<kind> → ipc.call →
// core.handle, all sharing the id "<vp>:<seq>".
// The replay (replay.go) adds replay.batch → coalesce.apply, sched.plan,
// hostgpu.run in slots after the VPs', one per device, with the batch number
// as seq.
var spanNames = []string{"cudart.h2d", "cudart.d2h", "cudart.launch", "cudart.memset", "ipc.call", "core.handle",
	"replay.batch", "coalesce.apply", "sched.plan", "hostgpu.run"}

const (
	kindH2D = iota
	kindD2H
	kindLaunch
	kindMemset
	spanIPC
	spanHandle
	spanBatch
	spanApply
	spanPlan
	spanRun
)

// span is one timed interval at a layer boundary. Parent indexes the owning
// VP's span slice (-1 for a root).
type span struct {
	name       uint8
	seq        int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// vpSpans holds one VP's spans. A guest has one request in flight, so the
// client side (guest goroutine) and the server side (an ipc worker) never
// record at the same moment; the mutex only orders their appends.
type vpSpans struct {
	mu     sync.Mutex
	spans  []span
	seq    int32 // cudart calls started
	cudart int32 // open cudart span, parent of the next ipc.call
	ipc    int32 // open ipc.call span, parent of the next core.handle
}

// tracer records spans in memory from the three shims below. While off it
// records nothing, so one fleet can run a warm-up before the traced window.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	vps   []*vpSpans
}

func newTracer(slots int) *tracer {
	t := &tracer{epoch: time.Now(), vps: make([]*vpSpans, slots)}
	for i := range t.vps {
		t.vps[i] = &vpSpans{cudart: -1, ipc: -1}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 while tracing is off.
func (t *tracer) begin(vp int, name uint8) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	v := t.vps[vp]
	v.mu.Lock()
	defer v.mu.Unlock()
	s := span{name: name, start: t.now(), parent: -1}
	switch name {
	case spanIPC:
		s.parent = v.cudart
	case spanHandle:
		s.parent = v.ipc
	default:
		v.seq++
	}
	s.seq = v.seq
	idx := int32(len(v.spans))
	v.spans = append(v.spans, s)
	switch name {
	case spanIPC:
		v.ipc = idx
	case spanHandle:
	default:
		v.cudart = idx
	}
	return idx
}

func (t *tracer) end(vp int, idx int32) {
	if idx < 0 {
		return
	}
	v := t.vps[vp]
	v.mu.Lock()
	v.spans[idx].end = t.now()
	switch v.spans[idx].name {
	case spanIPC:
		v.ipc = -1
	case spanHandle:
	default:
		v.cudart = -1
	}
	v.mu.Unlock()
}

// add records a finished span directly (the replay times its stages itself).
func (t *tracer) add(slot int, name uint8, seq, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	v := t.vps[slot]
	v.spans = append(v.spans, span{name: name, seq: seq, parent: parent,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	return int32(len(v.spans) - 1)
}

// tracedClient is the ipc shim: an ipc.Client that also forwards the binary
// codec's typed fast path, so cudart takes the same route as without it.
type tracedClient struct {
	ipc.Client
	tc ipc.TypedCaller
	t  *tracer
	vp int
}

func traceClient(c ipc.Client, t *tracer, vp int) ipc.Client {
	tc, ok := c.(ipc.TypedCaller)
	if !ok {
		panic("bench: ipc client lost its typed fast path")
	}
	return &tracedClient{Client: c, tc: tc, t: t, vp: vp}
}

// spanned wraps one client call in an ipc.call span.
func spanned[Q, R any](c *tracedClient, call func(Q) (R, error), req Q) (R, error) {
	s := c.t.begin(c.vp, spanIPC)
	defer c.t.end(c.vp, s)
	return call(req)
}

func (c *tracedClient) Call(req any) (any, error) { return spanned(c, c.Client.Call, req) }
func (c *tracedClient) CallH2D(r ipc.H2DReq) (ipc.OKResp, error) {
	return spanned(c, c.tc.CallH2D, r)
}
func (c *tracedClient) CallD2H(r ipc.D2HReq) (ipc.D2HResp, error) {
	return spanned(c, c.tc.CallD2H, r)
}
func (c *tracedClient) CallMemset(r ipc.MemsetReq) (ipc.OKResp, error) {
	return spanned(c, c.tc.CallMemset, r)
}
func (c *tracedClient) CallLaunch(r ipc.LaunchReq) (ipc.OKResp, error) {
	return spanned(c, c.tc.CallLaunch, r)
}

// tracedEndpoint is the core shim: it times Handle, the only door the
// transport uses into the service.
type tracedEndpoint struct {
	ipc.Endpoint
	t *tracer
}

func (e *tracedEndpoint) Handle(vp int, req any) any {
	if vp < 0 || vp >= len(e.t.vps) {
		return e.Endpoint.Handle(vp, req)
	}
	s := e.t.begin(vp, spanHandle)
	defer e.t.end(vp, s)
	return e.Endpoint.Handle(vp, req)
}

// layerTimes is what the spans say about the layers the bench can see from
// outside: mean self time per guest request, in microseconds.
type layerTimes struct {
	requests   int
	cudartSelf float64
	ipcSelf    float64
	handle     float64
}

// selfTimes computes each layer's self time (span minus the part its
// children cover) and checks that children nest inside their parents.
func (t *tracer) selfTimes() (layerTimes, error) {
	var lt layerTimes
	var cudartNS, ipcNS, handleNS int64
	for vp, v := range t.vps {
		child := make([]int64, len(v.spans))
		for i, s := range v.spans {
			if s.end < s.start {
				return lt, fmt.Errorf("trace: vp %d span %d never closed", vp, i)
			}
			if s.parent < 0 {
				continue
			}
			p := v.spans[s.parent]
			if s.start < p.start || s.end > p.end {
				return lt, fmt.Errorf("trace: vp %d span %d (%s) leaves its parent %s", vp, i, spanNames[s.name], spanNames[p.name])
			}
			child[s.parent] += s.end - s.start
		}
		for i, s := range v.spans {
			self := s.end - s.start - child[i]
			if self < 0 {
				return lt, fmt.Errorf("trace: vp %d span %d (%s) has negative self time", vp, i, spanNames[s.name])
			}
			switch {
			case s.name == spanIPC:
				ipcNS += self
			case s.name == spanHandle:
				handleNS += self
			case s.name < spanIPC:
				cudartNS += self
				lt.requests++
			}
		}
	}
	n := float64(lt.requests)
	lt.cudartSelf = ratio(float64(cudartNS)/1e3, n)
	lt.ipcSelf = ratio(float64(ipcNS)/1e3, n)
	lt.handle = ratio(float64(handleNS)/1e3, n)
	return lt, nil
}

// write stores the spans as compact rows; parent is a row index.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"epoch_unix_ns\":%d,\"names\":[", workload, t.epoch.UnixNano())
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"columns\":[\"name\",\"vp\",\"seq\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[")
	var buf []byte
	base, first := 0, true
	for vp, v := range t.vps {
		for _, s := range v.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base) + int64(s.parent)
			}
			buf = buf[:0]
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, '\n', '[')
			for i, x := range [...]int64{int64(s.name), int64(vp), int64(s.seq), s.start, s.end, parent} {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, x, 10)
			}
			buf = append(buf, ']')
			w.Write(buf)
		}
		base += len(v.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
