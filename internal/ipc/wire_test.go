package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/devmem"
	"repro/internal/kpl"
	"repro/internal/raceflag"
)

// wireMessages is one example of every body the wire can carry.
func wireMessages() []any {
	return []any{
		MallocReq{Size: 4096},
		MallocResp{Ptr: devmem.Ptr(0xdeadbeef)},
		FreeReq{Ptr: devmem.Ptr(0x1000)},
		H2DReq{Stream: 3, Dst: 0x2000, Off: 16, Data: []byte{1, 2, 3, 4, 5}},
		D2HReq{Stream: 2, Src: 0x3000, Off: 8, N: 128},
		D2HResp{Data: []byte{9, 8, 7}, End: 1.25},
		MemsetReq{Stream: 1, Dst: 0x4000, Off: 0, N: 64, Value: 0xAB},
		LaunchReq{
			Stream: 4, Kernel: "vectorAdd", Grid: 32, Block: 256,
			SharedMem: 1024, Regs: 21,
			Params:   map[string]kpl.Value{"n": kpl.IntVal(1 << 16), "alpha": kpl.F32Val(1.5), "beta": kpl.F64Val(2.5)},
			Bindings: map[string]devmem.Ptr{"a": 0x100, "b": 0x200, "c": 0x300},
		},
		SyncReq{Stream: 7},
		OKResp{End: 3.5},
		ErrResp{Msg: "device out of memory"},
		OverloadResp{Msg: "vp 3 overloaded", Backoff: 2500 * 1000, Retryable: true},
		// Degenerate shapes.
		H2DReq{},
		LaunchReq{Kernel: "k"},
		D2HResp{},
		ErrResp{},
		SyncReq{Stream: -1},
		OKResp{End: math.Inf(1)},
		OverloadResp{},
		OverloadResp{Msg: "payload too large", Backoff: -1, Retryable: false},
		// Farm-admin frames.
		MigrateReq{VP: 5, Target: 2},
		CheckpointReq{},
		CheckpointResp{Data: []byte{0xD6, 'C', 'K', 1, 1, 0}},
	}
}

// normalize maps a decoded body onto a comparable shape: payload views are
// copied, empty slices/maps folded to nil (an encoder cannot distinguish
// them on the wire), and floats replaced by their bit patterns so NaN
// payloads — which the codec preserves bit-exactly — compare equal.
func normalize(body any) any {
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	switch m := body.(type) {
	case H2DReq:
		if len(m.Data) == 0 {
			m.Data = nil
		} else {
			m.Data = append([]byte(nil), m.Data...)
		}
		return m
	case D2HResp:
		var data []byte
		if len(m.Data) > 0 {
			data = append([]byte(nil), m.Data...)
		}
		return struct {
			Data []byte
			End  uint64
		}{data, bits(m.End)}
	case OKResp:
		return struct{ End uint64 }{bits(m.End)}
	case LaunchReq:
		if len(m.Bindings) == 0 {
			m.Bindings = nil
		}
		params := make(map[string]struct {
			T kpl.Type
			F uint64
			I int64
		}, len(m.Params))
		for k, v := range m.Params {
			params[k] = struct {
				T kpl.Type
				F uint64
				I int64
			}{v.T, bits(v.F), v.I}
		}
		m.Params = nil
		return struct {
			Req    LaunchReq
			Params map[string]struct {
				T kpl.Type
				F uint64
				I int64
			}
		}{m, params}
	}
	return body
}

// TestWireRoundTrip encodes and decodes every message type and checks the
// body and request ID survive unchanged.
func TestWireRoundTrip(t *testing.T) {
	for i, msg := range wireMessages() {
		id := uint64(i*7 + 1)
		frame, err := appendMsg(nil, id, msg)
		if err != nil {
			t.Fatalf("msg %d (%T): encode: %v", i, msg, err)
		}
		gotLen := binary.LittleEndian.Uint32(frame[:4])
		if int(gotLen) != len(frame)-4 {
			t.Fatalf("msg %d (%T): length prefix %d, frame body %d", i, msg, gotLen, len(frame)-4)
		}
		gotID, body, err := decodeMsg(frame[4:])
		if err != nil {
			t.Fatalf("msg %d (%T): decode: %v", i, msg, err)
		}
		if gotID != id {
			t.Fatalf("msg %d (%T): id %d, want %d", i, msg, gotID, id)
		}
		if !reflect.DeepEqual(normalize(body), normalize(msg)) {
			t.Fatalf("msg %d (%T): round trip mismatch\n got %#v\nwant %#v", i, msg, body, msg)
		}
	}
}

// TestWireEncodeReusesBuffer checks append-style encoding reuses a caller
// buffer (the zero-allocation contract of the hot path).
func TestWireEncodeReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 4096)
	data := []byte{1, 2, 3, 4}
	n := testing.AllocsPerRun(200, func() {
		buf = appendH2DReq(buf, 42, H2DReq{Stream: 1, Dst: 0x100, Data: data})
	})
	if n != 0 {
		t.Fatalf("appendH2DReq allocates %v/op into a warm buffer, want 0", n)
	}
}

// TestWireTruncation decodes every strict prefix of every message: each must
// fail with a typed ErrMalformedFrame, never panic, never succeed.
func TestWireTruncation(t *testing.T) {
	for i, msg := range wireMessages() {
		frame, err := appendMsg(nil, uint64(i+1), msg)
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[4:]
		for cut := 0; cut < len(payload); cut++ {
			_, _, err := decodeMsg(payload[:cut])
			if err == nil {
				t.Fatalf("msg %d (%T): prefix of %d/%d bytes decoded cleanly", i, msg, cut, len(payload))
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("msg %d (%T): prefix error not typed: %v", i, msg, err)
			}
		}
	}
}

// TestWireTrailingGarbage checks extra bytes after a valid body are rejected.
func TestWireTrailingGarbage(t *testing.T) {
	frame, err := appendMsg(nil, 1, SyncReq{Stream: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = decodeMsg(append(frame[4:], 0x00))
	if !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("trailing garbage not rejected: %v", err)
	}
}

// TestReadFrameLengthCap checks corrupted length prefixes are rejected
// before any allocation or payload read.
func TestReadFrameLengthCap(t *testing.T) {
	var hdr [4]byte
	for _, n := range []uint32{0, maxFrame + 1, math.MaxUint32} {
		var raw [4]byte
		binary.LittleEndian.PutUint32(raw[:], n)
		_, err := readFrame(bytes.NewReader(raw[:]), &hdr, nil)
		if !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("length %d: err %v, want ErrMalformedFrame", n, err)
		}
	}
	// A plausible length with a short body is an io error (the transport
	// died), not silent success.
	var raw [6]byte
	binary.LittleEndian.PutUint32(raw[:4], 16)
	if _, err := readFrame(bytes.NewReader(raw[:]), &hdr, nil); err == nil {
		t.Fatal("short frame read succeeded")
	}
}

// checkSplitAgrees holds the client's split D2H read to the whole-frame
// decoder: given the same frame (type+id+body), parsing the head from its
// first bytes and taking the rest as the payload must accept exactly when
// decodeMsg accepts, and then yield the same request ID and D2HResp.
func checkSplitAgrees(t *testing.T, frame []byte, id uint64, body any, err error) {
	t.Helper()
	if len(frame) == 0 || frame[0] != msgD2HResp {
		return
	}
	headLen, sid, end, n, serr := parseD2HRespHead(frame[:min(len(frame), d2hHeadMax-4)], len(frame))
	if (serr == nil) != (err == nil) {
		t.Fatalf("split read and whole-frame decode disagree on % x: split err %v, whole err %v", frame, serr, err)
	}
	if serr != nil {
		if !errors.Is(serr, ErrMalformedFrame) {
			t.Fatalf("split head error not typed: %v", serr)
		}
		return
	}
	split := D2HResp{Data: frame[headLen : headLen+n], End: end}
	if headLen+n != len(frame) || sid != id || !reflect.DeepEqual(normalize(split), normalize(body)) {
		t.Fatalf("split read of % x: id %d head %d payload %d, got %#v; whole-frame decode: id %d, %#v", frame, sid, headLen, n, split, id, body)
	}
}

// TestSplitD2HHeadAgreesWithDecoder runs checkSplitAgrees over D2H frames
// with the defects the split read must catch before it allocates: a payload
// length that is not the frame's remainder, truncation at every byte, and
// trailing bytes.
func TestSplitD2HHeadAgreesWithDecoder(t *testing.T) {
	for _, n := range []int{0, 1, 200, 1 << 10, 4 << 10} {
		frame, err := appendMsg(nil, uint64(n)<<40|5, D2HResp{Data: make([]byte, n), End: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		good := frame[4:]
		cases := [][]byte{good, append(good[:len(good):len(good)], 0)}
		for cut := 0; cut < min(len(good), 64); cut++ {
			cases = append(cases, good[:cut])
		}
		if n > 0 {
			cases = append(cases, good[:len(good)-1])
		}
		for _, c := range cases {
			id, body, err := decodeMsg(c)
			if (err == nil) != (len(c) == len(good)) {
				t.Fatalf("n=%d: %d of %d bytes: decode err %v", n, len(c), len(good), err)
			}
			checkSplitAgrees(t, c, id, body, err)
		}
	}
}

// FuzzWireCodec fuzzes the frame decoder: arbitrary payloads must either
// fail with a typed error or decode into a body that re-encodes and
// re-decodes to the same value (the codec's round-trip property). It must
// never panic and never over-read. A D2H response is also put through the
// client's split read, which must agree with the decoder (checkSplitAgrees).
func FuzzWireCodec(f *testing.F) {
	for i, msg := range wireMessages() {
		frame, err := appendMsg(nil, uint64(i+1), msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(msgLaunchReq), 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// D2H responses whose announced payload length is one off the remainder.
	f.Add([]byte{msgD2HResp, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0xAA})
	f.Add([]byte{msgD2HResp, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xAA, 0xBB})
	// The extreme offsets and lengths of a hostile guest: they are well-formed
	// on the wire and must round-trip; the device refuses them.
	for _, v := range []int{-1, math.MinInt, math.MaxInt} {
		for _, msg := range []any{
			H2DReq{Dst: 0x100, Off: v, Data: []byte{1}},
			D2HReq{Src: 0x100, Off: v, N: v},
			MemsetReq{Dst: 0x100, Off: v, N: v, Value: 1},
		} {
			frame, err := appendMsg(nil, 7, msg)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame[4:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, body, err := decodeMsg(payload)
		checkSplitAgrees(t, payload, id, body, err)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("decode error not typed: %v", err)
			}
			return
		}
		frame, err := appendMsg(nil, id, body)
		if err != nil {
			t.Fatalf("decoded body %T does not re-encode: %v", body, err)
		}
		id2, body2, err := decodeMsg(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if id2 != id {
			t.Fatalf("id changed across round trip: %d != %d", id2, id)
		}
		if !reflect.DeepEqual(normalize(body2), normalize(body)) {
			t.Fatalf("round trip changed body:\n got %#v\nwant %#v", body2, body)
		}
	})
}

// rawResponder is a minimal in-process server used by the alloc
// pins: it answers every request from pre-encoded state without allocating,
// so client-side AllocsPerRun measurements are not polluted by server-side
// handler allocations.
func rawResponder(t *testing.T, l net.Listener) {
	t.Helper()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, 3) // magic + version + single-byte varint VP
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		var hdr [4]byte
		var buf, out []byte
		for {
			var err error
			buf, err = readFrame(conn, &hdr, buf)
			if err != nil {
				return
			}
			rd := wireReader{b: buf}
			typ := rd.byte()
			id := rd.uvarint()
			if rd.err != nil {
				return
			}
			switch typ {
			case msgD2HReq:
				// Skip stream/src/off, answer with N bytes of the frame
				// buffer itself (content is irrelevant to the pin).
				rd.int()
				rd.uvarint()
				rd.int()
				n := rd.int()
				if n < 0 || n > len(buf) {
					n = len(buf)
				}
				out, _ = appendMsg(out, id, D2HResp{Data: buf[:n], End: 1})
			case msgMallocReq:
				out, _ = appendMsg(out, id, MallocResp{Ptr: 0x1000})
			default:
				out, _ = appendMsg(out, id, OKResp{End: 1})
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
}

// dialRaw connects a client to a rawResponder listener.
func dialRaw(t *testing.T) (Client, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rawResponder(t, l)
	c, err := Dial(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return c, func() { c.Close(); l.Close() }
}

// TestBinaryCallAllocs pins the steady-state allocation budget of the typed
// fast paths: ≤ 2 allocs/op for each leg of an H2D → launch → D2H cycle
// (H2D and launch should be zero; D2H pays exactly its caller-owned data
// copy).
func TestBinaryCallAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	c, stop := dialRaw(t)
	defer stop()
	tc := c.(TypedCaller)

	data := make([]byte, 1024)
	launch := LaunchReq{
		Stream: 0, Kernel: "vectorAdd", Grid: 8, Block: 128,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(1024)},
		Bindings: map[string]devmem.Ptr{"a": 0x100, "b": 0x200},
	}

	// Warm the connection, pools, and encode buffers.
	for i := 0; i < 32; i++ {
		if _, err := tc.CallH2D(H2DReq{Dst: 0x100, Data: data}); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.CallLaunch(launch); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.CallD2H(D2HReq{Src: 0x100, N: 64}); err != nil {
			t.Fatal(err)
		}
	}

	pins := []struct {
		name   string
		budget float64
		call   func() error
	}{
		{"H2D", 2, func() error { _, err := tc.CallH2D(H2DReq{Dst: 0x100, Data: data}); return err }},
		{"Launch", 2, func() error { _, err := tc.CallLaunch(launch); return err }},
		{"D2H", 2, func() error { _, err := tc.CallD2H(D2HReq{Src: 0x100, N: 64}); return err }},
	}
	for _, pin := range pins {
		var callErr error
		n := testing.AllocsPerRun(100, func() {
			if err := pin.call(); err != nil && callErr == nil {
				callErr = err
			}
		})
		if callErr != nil {
			t.Fatalf("%s: %v", pin.name, callErr)
		}
		t.Logf("%s: %v allocs/op (budget %v)", pin.name, n, pin.budget)
		if n > pin.budget {
			t.Errorf("%s: %v allocs/op, budget %v", pin.name, n, pin.budget)
		}
	}
}

// allocBytesPerOp returns the bytes allocated per call of fn, by the whole
// process, over n calls.
func allocBytesPerOp(t *testing.T, n int, fn func() error) float64 {
	t.Helper()
	// No collection while measuring: one would empty the frame pool, and the
	// frame made to refill it reads as a payload-sized allocation per call.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPayloadCallAllocs pins, in bytes, what a payload-sized call allocates
// end to end — client and Server in this process, handler serving D2H from a
// pooled response frame as core does: an H2D allocates no buffer anywhere
// (the caller's slice leaves in a writev, the server reads into a pooled
// frame), a D2H allocates the caller-owned result and nothing else of
// payload size.
func TestPayloadCallAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins are timing-sensitive; skipped in -short")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, payloadHandler)
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := c.(TypedCaller)

	const payload = 256 << 10
	data := make([]byte, payload)
	h2d := func() error { _, err := tc.CallH2D(H2DReq{Dst: 0x100, Data: data}); return err }
	d2h := func() error {
		d, err := tc.CallD2H(D2HReq{Src: 0x100, N: payload})
		if err == nil && len(d.Data) != payload {
			err = fmt.Errorf("D2H returned %d bytes", len(d.Data))
		}
		return err
	}
	for i := 0; i < 16; i++ { // warm the connection, the pools, the encode buffers
		if err := errors.Join(h2d(), d2h()); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocBytesPerOp(t, 64, h2d); got >= 4<<10 {
		t.Errorf("H2D of %d bytes allocates %.0f B/op end to end, want < 4 KiB", payload, got)
	} else {
		t.Logf("H2D: %.0f B/op", got)
	}
	if got := allocBytesPerOp(t, 64, d2h); got > 1.1*payload {
		t.Errorf("D2H of %d bytes allocates %.0f B/op end to end, want ≤ 1.1× the payload", payload, got)
	} else {
		t.Logf("D2H: %.0f B/op", got)
	}
}

// TestBinaryClientConcurrent hammers one shared binary client from many
// goroutines (run under -race to pin the pending-call map and slot pool):
// every response must match its own request.
func TestBinaryClientConcurrent(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := c.(TypedCaller)

	const goroutines = 16
	const calls = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Mix typed and boxed calls; check each answer is ours.
				n := g*calls + i + 1
				ok, err := tc.CallH2D(H2DReq{Stream: g, Dst: 0x100, Data: make([]byte, n)})
				if err != nil {
					errs <- fmt.Errorf("g%d h2d %d: %w", g, i, err)
					return
				}
				if ok.End != float64(n) {
					errs <- fmt.Errorf("g%d h2d %d: got %v, want %d (crossed response)", g, i, ok.End, n)
					return
				}
				d, err := tc.CallD2H(D2HReq{Stream: g, Src: 0x100, N: n})
				if err != nil {
					errs <- fmt.Errorf("g%d d2h %d: %w", g, i, err)
					return
				}
				if len(d.Data) != n {
					errs <- fmt.Errorf("g%d d2h %d: %d bytes, want %d (crossed response)", g, i, len(d.Data), n)
					return
				}
				if resp, err := c.Call(SyncReq{Stream: g}); err != nil {
					errs <- fmt.Errorf("g%d sync %d: %w", g, i, err)
					return
				} else if resp.(OKResp).End != 5 {
					errs <- fmt.Errorf("g%d sync %d: got %v, want vp 5", g, i, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerStreamOrdering speaks the raw binary protocol to a Server,
// pipelining many requests on two streams without awaiting responses, and
// checks the handler observes each stream's requests in wire order — the
// per-stream FIFO guarantee of the worker pool.
func TestServerStreamOrdering(t *testing.T) {
	const perStream = 40
	var mu sync.Mutex
	seen := map[int][]int{} // stream → Off values in handler order
	handler := func(vp int, req any) any {
		if r, ok := req.(H2DReq); ok {
			mu.Lock()
			seen[r.Stream] = append(seen[r.Stream], r.Off)
			mu.Unlock()
			return OKResp{End: float64(r.Off)}
		}
		return ErrResp{Msg: "unexpected"}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, handler)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHello(nil, 1)); err != nil {
		t.Fatal(err)
	}
	// Pipeline all requests up front: streams interleaved, no response waits.
	var out []byte
	id := uint64(0)
	for i := 0; i < perStream; i++ {
		for stream := 0; stream < 2; stream++ {
			id++
			frame := appendH2DReq(nil, id, H2DReq{Stream: stream, Off: i, Data: []byte{byte(i)}})
			out = append(out, frame...)
		}
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	// Drain all responses.
	var hdr [4]byte
	var buf []byte
	for got := 0; got < 2*perStream; got++ {
		buf, err = readFrame(conn, &hdr, buf)
		if err != nil {
			t.Fatalf("response %d: %v", got, err)
		}
		if _, _, err := decodeMsg(buf); err != nil {
			t.Fatalf("response %d: %v", got, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for stream := 0; stream < 2; stream++ {
		offs := seen[stream]
		if len(offs) != perStream {
			t.Fatalf("stream %d: handler saw %d requests, want %d", stream, len(offs), perStream)
		}
		for i, off := range offs {
			if off != i {
				t.Fatalf("stream %d: request %d handled out of order (saw Off=%d)", stream, i, off)
			}
		}
	}
}
