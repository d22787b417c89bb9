// The wire format of the IPC Manager's TCP transport: a hand-rolled
// length-prefixed binary encoding per message type over pooled buffers —
// varint integers, raw byte payloads, zero steady-state allocations for
// H2D/D2H/Launch frames on the encode side.
//
// Frame layout (everything after the hello):
//
//	+----------------+---------+-------------+----------------------+
//	| length u32 LE  | type b  | id uvarint  | body (per type)      |
//	+----------------+---------+-------------+----------------------+
//	|<------------------------- length ------------------------->|
//
// The length covers type+id+body and is capped at maxFrame; a corrupted
// length either trips the cap (typed error, connection closed) or truncates
// the body (typed decode error). Decoding never reads past the frame and
// never panics — FuzzWireCodec holds it to that. An encoder refuses a message
// over the cap (ErrFrameTooLarge) before it writes anything.
//
// The two payload-carrying frames end in their payload, so each side moves
// the bytes once: a client sends an H2DReq as head + the caller's slice in
// one writev, a server reads a D2H straight into a response frame (see
// NewD2HResp) and the client reads that frame's tail off the socket into the
// caller-owned result.
//
//	H2DReq  | type | id | stream | dst | off | n uvarint | n payload bytes |
//	D2HResp | type | id | End f64 LE     | n uvarint | n payload bytes |
//
// One frame is one Write (or one writev) on the connection, never two: the
// fault injector's seeded schedule rolls once per Write, and that has to
// keep meaning once per frame.
//
// A connection opens with the client's hello — wireMagic, wireVersion,
// varint VP id — and the server closes, without a reply, any connection
// whose hello does not start with exactly those two bytes: a peer built
// against another frame layout is refused before it can send a request.

package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/devmem"
	"repro/internal/kpl"
)

// wireMagic is the first byte of a hello.
const wireMagic = 0xD5

// wireVersion is the protocol version carried in the hello. It changes
// whenever any frame's layout does, so a mismatched peer is refused at the
// hello instead of misreading a frame later. 3 moved D2HResp's End in front
// of its payload.
const wireVersion = 3

// maxFrame bounds a single frame's payload (type+id+body). Larger lengths
// are treated as corruption and close the connection.
const maxFrame = 1 << 27 // 128 MiB

// Message type bytes. The zero value is invalid on purpose: a zeroed or
// truncated header never decodes as a valid message.
const (
	msgInvalid byte = iota
	msgMallocReq
	msgMallocResp
	msgFreeReq
	msgH2DReq
	msgD2HReq
	msgD2HResp
	msgMemsetReq
	msgLaunchReq
	msgSyncReq
	msgOKResp
	msgErrResp
	msgOverloadResp
	msgMigrateReq
	msgCheckpointReq
	msgCheckpointResp
)

// ErrMalformedFrame is the sentinel for every frame decode failure:
// truncated frames, over-long lengths, unknown message types, trailing
// garbage. Callers match it with errors.Is.
var ErrMalformedFrame = errors.New("ipc: malformed binary frame")

// ErrFrameTooLarge refuses a message whose frame would exceed the wire's
// frame cap, before anything is written: the peer would take such a frame for
// corruption and close the connection, so replaying it can never succeed
// (IsRetryable reports false). Callers match it with errors.Is.
var ErrFrameTooLarge = errors.New("ipc: message exceeds the frame limit")

// checkFrameLen refuses a frame of n bytes (type+id+body) over maxFrame.
func checkFrameLen(n int) error {
	if n > maxFrame {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	return nil
}

// wireError wraps a decode failure with context while staying matchable as
// ErrMalformedFrame.
func wireError(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformedFrame, fmt.Sprintf(format, args...))
}

// --- Encoding (append-style, zero-allocation into a caller buffer) ---

// beginFrame reserves the length prefix and writes type + request ID.
func beginFrame(buf []byte, typ byte, id uint64) []byte {
	buf = append(buf[:0], 0, 0, 0, 0) // length placeholder
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, id)
	return buf
}

// finishFrame patches the length prefix, refusing a frame over the cap.
func finishFrame(buf []byte) ([]byte, error) { return finishHead(buf, 0) }

// finishHead is finishFrame for a frame whose last payload bytes are not in
// buf: they follow it on the wire (a writev's second element) or sit behind it
// already (a response frame's tail).
func finishHead(buf []byte, payload int) ([]byte, error) {
	n := len(buf) - 4 + payload
	if err := checkFrameLen(n); err != nil {
		return buf, err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	return buf, nil
}

func appendInt(buf []byte, v int) []byte       { return binary.AppendVarint(buf, int64(v)) }
func appendUint64(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendValue(buf []byte, v kpl.Value) []byte {
	buf = append(buf, byte(v.T))
	if v.T == kpl.I32 {
		return binary.AppendVarint(buf, v.I)
	}
	return appendFloat64(buf, v.F)
}

// appendMsg encodes one request or response body (type byte + id + body)
// into buf, returning the complete frame. It is the `any`-typed encoder of
// the server path and the generic client Call; the typed client methods hand
// the per-type encoders below to the same exchange and skip the boxing.
func appendMsg(buf []byte, id uint64, body any) ([]byte, error) {
	switch m := body.(type) {
	case MallocReq:
		buf = beginFrame(buf, msgMallocReq, id)
		buf = appendInt(buf, m.Size)
	case MallocResp:
		buf = beginFrame(buf, msgMallocResp, id)
		buf = appendUint64(buf, uint64(m.Ptr))
	case FreeReq:
		buf = beginFrame(buf, msgFreeReq, id)
		buf = appendUint64(buf, uint64(m.Ptr))
	case H2DReq:
		buf, err := appendH2DHead(buf, id, m)
		if err != nil {
			return buf, err
		}
		return append(buf, m.Data...), nil
	case D2HReq:
		return appendD2HReq(buf, id, m)
	case D2HResp:
		buf, err := appendD2HRespHead(buf, id, m.End, len(m.Data))
		if err != nil {
			return buf, err
		}
		return append(buf, m.Data...), nil
	case MemsetReq:
		return appendMemsetReq(buf, id, m)
	case LaunchReq:
		return appendLaunchReq(buf, id, m)
	case SyncReq:
		buf = beginFrame(buf, msgSyncReq, id)
		buf = appendInt(buf, m.Stream)
	case OKResp:
		buf = beginFrame(buf, msgOKResp, id)
		buf = appendFloat64(buf, m.End)
	case ErrResp:
		buf = beginFrame(buf, msgErrResp, id)
		buf = appendString(buf, m.Msg)
	case OverloadResp:
		buf = beginFrame(buf, msgOverloadResp, id)
		buf = appendString(buf, m.Msg)
		buf = binary.AppendVarint(buf, int64(m.Backoff))
		retry := byte(0)
		if m.Retryable {
			retry = 1
		}
		buf = append(buf, retry)
	case MigrateReq:
		buf = beginFrame(buf, msgMigrateReq, id)
		buf = appendInt(buf, m.VP)
		buf = appendInt(buf, m.Target)
	case CheckpointReq:
		buf = beginFrame(buf, msgCheckpointReq, id)
	case CheckpointResp:
		buf = beginFrame(buf, msgCheckpointResp, id)
		buf = appendBytes(buf, m.Data)
	default:
		return buf, fmt.Errorf("ipc: cannot encode %T", body)
	}
	return finishFrame(buf)
}

// appendH2DHead encodes an H2D frame up to, and not including, its payload
// bytes; the length prefix already counts them. The payload follows as the
// second element of a writev, or appended for a single Write.
func appendH2DHead(buf []byte, id uint64, m H2DReq) ([]byte, error) {
	buf = beginFrame(buf, msgH2DReq, id)
	buf = appendInt(buf, m.Stream)
	buf = appendUint64(buf, uint64(m.Dst))
	buf = appendInt(buf, m.Off)
	buf = binary.AppendUvarint(buf, uint64(len(m.Data)))
	return finishHead(buf, len(m.Data))
}

func appendH2DReq(buf []byte, id uint64, m H2DReq) []byte {
	buf, _ = appendH2DHead(buf, id, m)
	return append(buf, m.Data...)
}

// appendD2HRespHead encodes a D2HResp frame up to, and not including, its n
// payload bytes; the length prefix already counts them.
func appendD2HRespHead(buf []byte, id uint64, end float64, n int) ([]byte, error) {
	buf = beginFrame(buf, msgD2HResp, id)
	buf = appendFloat64(buf, end)
	buf = binary.AppendUvarint(buf, uint64(n))
	return finishHead(buf, n)
}

// d2hHeadMax is the longest head a D2HResp frame can have in front of its
// payload: length prefix, type, id, End, payload length.
const d2hHeadMax = 4 + 1 + binary.MaxVarintLen64 + 8 + binary.MaxVarintLen64

// NewD2HResp returns a response whose Data, n bytes long, is the tail of a
// pooled response frame with room for the frame head in front of it. A
// handler reads the device bytes straight into Data (sched.NewD2HInto) and
// returns the response; the TCP server then writes head and payload as the
// one frame they already are and recycles it — no buffer is made and the
// bytes are not copied again. n must already have been checked against the
// allocation it reads from. The frame goes back to the pool only from the
// transport, after its Write has returned: a handler that fails simply drops
// the response (a cancelled job may still hold the buffer), and the pipe
// transport hands Data to the caller for good. A length no frame can carry
// gets a response without a frame, which the encoder then refuses with
// ErrFrameTooLarge.
func NewD2HResp(n int) D2HResp {
	if n < 0 || n > maxFrame-d2hHeadMax {
		return D2HResp{}
	}
	fb := framePool.Get().(*frameBuf)
	if cap(fb.b) < d2hHeadMax+n {
		fb.b = make([]byte, d2hHeadMax+n)
	}
	fb.b = fb.b[:d2hHeadMax+n]
	return D2HResp{Data: fb.b[d2hHeadMax:], frame: fb}
}

// wireFrame right-aligns the frame head against the payload inside the
// response's pooled frame and returns the complete frame, or nil when Data is
// not (or no longer) that frame's payload and the response must be encoded
// the plain way.
func (m D2HResp) wireFrame(id uint64) []byte {
	fb := m.frame
	if fb == nil || len(fb.b) != d2hHeadMax+len(m.Data) ||
		(len(m.Data) > 0 && &m.Data[0] != &fb.b[d2hHeadMax]) {
		return nil
	}
	var scratch [d2hHeadMax]byte
	head, _ := appendD2HRespHead(scratch[:], id, m.End, len(m.Data)) // NewD2HResp sized the frame under the cap
	start := d2hHeadMax - len(head)
	copy(fb.b[start:], head)
	return fb.b[start:]
}

func appendD2HReq(buf []byte, id uint64, m D2HReq) ([]byte, error) {
	buf = beginFrame(buf, msgD2HReq, id)
	buf = appendInt(buf, m.Stream)
	buf = appendUint64(buf, uint64(m.Src))
	buf = appendInt(buf, m.Off)
	buf = appendInt(buf, m.N)
	return finishFrame(buf)
}

func appendMemsetReq(buf []byte, id uint64, m MemsetReq) ([]byte, error) {
	buf = beginFrame(buf, msgMemsetReq, id)
	buf = appendInt(buf, m.Stream)
	buf = appendUint64(buf, uint64(m.Dst))
	buf = appendInt(buf, m.Off)
	buf = appendInt(buf, m.N)
	buf = append(buf, m.Value)
	return finishFrame(buf)
}

func appendLaunchReq(buf []byte, id uint64, m LaunchReq) ([]byte, error) {
	buf = beginFrame(buf, msgLaunchReq, id)
	buf = appendInt(buf, m.Stream)
	buf = appendString(buf, m.Kernel)
	buf = appendInt(buf, m.Grid)
	buf = appendInt(buf, m.Block)
	buf = appendInt(buf, m.SharedMem)
	buf = appendInt(buf, m.Regs)
	buf = binary.AppendUvarint(buf, uint64(len(m.Params)))
	for name, v := range m.Params {
		buf = appendString(buf, name)
		buf = appendValue(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Bindings)))
	for name, p := range m.Bindings {
		buf = appendString(buf, name)
		buf = appendUint64(buf, uint64(p))
	}
	return finishFrame(buf)
}

// appendHello encodes the hello: magic, version, VP id.
func appendHello(buf []byte, vp int) []byte {
	buf = append(buf[:0], wireMagic, wireVersion)
	return binary.AppendVarint(buf, int64(vp))
}

// --- Decoding (bounds-checked, never over-reads, never panics) ---

// wireReader walks one frame's payload. Every read is bounds-checked; after
// an error all further reads are no-ops returning zero values, so decoders
// can read a whole message and check rd.err once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = wireError(format, args...)
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) int() int { return int(r.varint()) }

func (r *wireReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated float64 at byte %d", r.off)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f
}

// bytesView returns a view into the frame buffer (no copy). Valid only while
// the frame buffer is; receivers that retain the data must copy.
func (r *wireReader) bytesView() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("byte slice of %d exceeds frame (%d left)", n, len(r.b)-r.off)
		return nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *wireReader) string() string {
	return string(r.bytesView())
}

func (r *wireReader) value() kpl.Value {
	t := kpl.Type(r.byte())
	switch t {
	case kpl.I32:
		return kpl.Value{T: t, I: r.varint()}
	case kpl.F32, kpl.F64:
		return kpl.Value{T: t, F: r.float64()}
	default:
		r.fail("bad value type %d", t)
		return kpl.Value{}
	}
}

// done checks the whole payload was consumed (trailing garbage is treated as
// corruption) and returns the accumulated error.
func (r *wireReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// maxMapEntries bounds decoded launch maps; a corrupted count must not
// drive a huge pre-allocation.
const maxMapEntries = 1 << 16

// decodeMsg decodes one frame payload (after the length prefix) into a
// request ID and a boxed body. Byte payloads (H2DReq.Data, D2HResp.Data)
// are views into b: receivers that retain them past b's lifetime must copy.
func decodeMsg(b []byte) (id uint64, body any, err error) {
	rd := &wireReader{b: b}
	typ := rd.byte()
	id = rd.uvarint()
	switch typ {
	case msgMallocReq:
		m := MallocReq{Size: rd.int()}
		return id, m, rd.done()
	case msgMallocResp:
		m := MallocResp{Ptr: devmem.Ptr(rd.uvarint())}
		return id, m, rd.done()
	case msgFreeReq:
		m := FreeReq{Ptr: devmem.Ptr(rd.uvarint())}
		return id, m, rd.done()
	case msgH2DReq:
		m := H2DReq{Stream: rd.int(), Dst: devmem.Ptr(rd.uvarint()), Off: rd.int()}
		m.Data = rd.bytesView()
		return id, m, rd.done()
	case msgD2HReq:
		m := D2HReq{Stream: rd.int(), Src: devmem.Ptr(rd.uvarint()), Off: rd.int(), N: rd.int()}
		return id, m, rd.done()
	case msgD2HResp:
		m := D2HResp{End: rd.float64(), Data: rd.bytesView()}
		return id, m, rd.done()
	case msgMemsetReq:
		m := MemsetReq{Stream: rd.int(), Dst: devmem.Ptr(rd.uvarint()), Off: rd.int(), N: rd.int(), Value: rd.byte()}
		return id, m, rd.done()
	case msgLaunchReq:
		m, err := decodeLaunch(rd)
		return id, m, err
	case msgSyncReq:
		m := SyncReq{Stream: rd.int()}
		return id, m, rd.done()
	case msgOKResp:
		m := OKResp{End: rd.float64()}
		return id, m, rd.done()
	case msgErrResp:
		m := ErrResp{Msg: rd.string()}
		return id, m, rd.done()
	case msgOverloadResp:
		m := OverloadResp{Msg: rd.string()}
		m.Backoff = time.Duration(rd.varint())
		m.Retryable = rd.byte() != 0
		return id, m, rd.done()
	case msgMigrateReq:
		m := MigrateReq{VP: rd.int(), Target: rd.int()}
		return id, m, rd.done()
	case msgCheckpointReq:
		return id, CheckpointReq{}, rd.done()
	case msgCheckpointResp:
		m := CheckpointResp{Data: rd.bytesView()}
		return id, m, rd.done()
	default:
		return id, nil, wireError("unknown message type %d", typ)
	}
}

func decodeLaunch(rd *wireReader) (LaunchReq, error) {
	m := LaunchReq{
		Stream: rd.int(), Kernel: rd.string(),
		Grid: rd.int(), Block: rd.int(), SharedMem: rd.int(), Regs: rd.int(),
	}
	np := rd.uvarint()
	if np > maxMapEntries {
		rd.fail("params count %d exceeds cap", np)
		return m, rd.err
	}
	if np > 0 && rd.err == nil {
		m.Params = make(map[string]kpl.Value, np)
		for i := uint64(0); i < np && rd.err == nil; i++ {
			name := rd.string()
			m.Params[name] = rd.value()
		}
	}
	nb := rd.uvarint()
	if nb > maxMapEntries {
		rd.fail("bindings count %d exceeds cap", nb)
		return m, rd.err
	}
	if nb > 0 && rd.err == nil {
		m.Bindings = make(map[string]devmem.Ptr, nb)
		for i := uint64(0); i < nb && rd.err == nil; i++ {
			name := rd.string()
			m.Bindings[name] = devmem.Ptr(rd.uvarint())
		}
	}
	return m, rd.done()
}

// readFrameLen reads a frame's length prefix and enforces maxFrame on it, so
// a corrupted length can neither over-allocate nor over-read.
func readFrameLen(r io.Reader, hdr *[4]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, wireError("frame length %d out of range", n)
	}
	return int(n), nil
}

// readFrameBody reads a frame's n bytes (type+id+body) from r into buf,
// growing it if needed, and returns them.
func readFrameBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// readFrame reads one length-prefixed frame from r into buf: readFrameLen,
// then readFrameBody.
func readFrame(r io.Reader, hdr *[4]byte, buf []byte) ([]byte, error) {
	n, err := readFrameLen(r, hdr)
	if err != nil {
		return buf, err
	}
	return readFrameBody(r, n, buf)
}

// parseD2HRespHead parses the head of a D2HResp frame of frameLen bytes from
// head, the frame's first bytes (type byte first; d2hHeadMax-4 of them always
// suffice). It returns the head's length, the request ID, End and the payload
// length, which it has checked to fill the rest of the frame exactly — the
// split path's equivalent of the whole-frame decoder's bounds and
// trailing-bytes checks, made before anything is allocated for the payload.
func parseD2HRespHead(head []byte, frameLen int) (headLen int, id uint64, end float64, n int, err error) {
	if len(head) > frameLen {
		head = head[:frameLen]
	}
	rd := wireReader{b: head}
	if typ := rd.byte(); typ != msgD2HResp {
		rd.fail("message type %d is not a D2H response", typ)
	}
	id = rd.uvarint()
	end = rd.float64()
	size := rd.uvarint()
	if rd.err == nil && size != uint64(frameLen-rd.off) {
		rd.fail("D2H payload of %d bytes in a frame with %d left", size, frameLen-rd.off)
	}
	return rd.off, id, end, int(size), rd.err
}
