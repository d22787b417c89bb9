package core

// Serializable VP state. A VP's complete device-side context — its devmem
// allocations with their bytes and its per-stream simulated clocks — can be
// captured behind the existing drain barriers, moved to another device
// (MultiService.Migrate) or saved to disk and restored after a daemon
// restart (SaveCheckpoint/LoadCheckpoint). Queued jobs and admission
// reservations need no representation: a checkpoint is only taken after the
// source device flushed and drained, at which point every submitted job has
// retired and every admission reservation has been released — in-flight
// work is drained, never dropped.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
)

// AllocVP reserves n bytes of the device for a VP and records the ownership,
// so the allocation travels with the VP on checkpoint and migration. The
// returned pointer is the VP's *guest* pointer: it stays stable for the
// VP's lifetime even if a later migration rebases the backing device
// address (ResolvePtr translates).
func (s *Service) AllocVP(vp, n int) (devmem.Ptr, error) {
	p, err := s.GPU.Mem.Alloc(n)
	if err != nil {
		return 0, err
	}
	s.memMu.Lock()
	t := s.vpAllocs[vp]
	if t == nil {
		t = map[devmem.Ptr]devmem.Ptr{}
		s.vpAllocs[vp] = t
	}
	t[p] = p
	s.memMu.Unlock()
	return p, nil
}

// FreeVP releases the allocation behind a VP's guest pointer. Pointers not
// tracked for the VP (allocated straight on GPU.Mem by a harness) fall back
// to a raw free, preserving the historical behaviour.
func (s *Service) FreeVP(vp int, guest devmem.Ptr) error {
	s.memMu.Lock()
	dev, tracked := guest, false
	if t := s.vpAllocs[vp]; t != nil {
		if d, ok := t[guest]; ok {
			dev, tracked = d, true
			delete(t, guest)
			if len(t) == 0 {
				delete(s.vpAllocs, vp)
			}
		}
	}
	s.memMu.Unlock()
	err := s.GPU.Mem.Free(dev)
	if err != nil && tracked {
		// The arena refused a pointer the table vouched for; re-track it so
		// the VP's ownership map stays consistent with the arena.
		s.memMu.Lock()
		t := s.vpAllocs[vp]
		if t == nil {
			t = map[devmem.Ptr]devmem.Ptr{}
			s.vpAllocs[vp] = t
		}
		t[guest] = dev
		s.memMu.Unlock()
	}
	return err
}

// ResolvePtr translates a VP's guest pointer to its current device pointer.
// The two are identical unless a migration restore rebased the allocation;
// unknown pointers pass through untranslated (harness allocations made
// straight on GPU.Mem keep working).
func (s *Service) ResolvePtr(vp int, p devmem.Ptr) devmem.Ptr {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if t := s.vpAllocs[vp]; t != nil {
		if d, ok := t[p]; ok {
			return d
		}
	}
	return p
}

// resolveBindings translates every pointer in a kernel binding map. When no
// pointer is rebased — the common case — it returns the input map itself and
// false; otherwise a fresh, translated copy and true.
func (s *Service) resolveBindings(vp int, b map[string]devmem.Ptr) (map[string]devmem.Ptr, bool) {
	if len(b) == 0 {
		return b, false
	}
	s.memMu.Lock()
	t := s.vpAllocs[vp]
	var out map[string]devmem.Ptr
	if t != nil {
		for name, p := range b {
			if d, ok := t[p]; ok && d != p {
				if out == nil {
					out = make(map[string]devmem.Ptr, len(b))
					for n, q := range b {
						out[n] = q
					}
				}
				out[name] = d
			}
		}
	}
	s.memMu.Unlock()
	if out == nil {
		return b, false
	}
	return out, true
}

// registered reports whether the VP is currently registered with the
// batching logic.
func (s *Service) registered(vp int) bool {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	i := sort.SearchInts(s.order, vp)
	return i < len(s.order) && s.order[i] == vp
}

// VPCheckpoint is one VP's complete device-side context. Allocs is keyed by
// the VP's guest pointers (sorted), carrying private copies of the buffer
// bytes; Streams carries the simulated clocks of the VP's stream window so
// causal ordering survives a device move. Queue entries and admission
// reservations are absent by construction: checkpoints are captured after a
// flush + drain, when both are provably empty for the VP.
type VPCheckpoint struct {
	VP         int
	Device     int
	Registered bool
	Allocs     []devmem.Entry
	Streams    []hostgpu.StreamFrontier
}

// Bytes returns the total buffer payload the checkpoint carries.
func (ck *VPCheckpoint) Bytes() int64 {
	var n int64
	for _, e := range ck.Allocs {
		n += int64(len(e.Data))
	}
	return n
}

// CheckpointVP captures a VP's device-side context. The caller must have
// quiesced the VP (no requests in flight — MultiService holds the VP's
// migration gate) and drained the device (Flush), so the capture is a
// consistent cut: every submitted job has retired into devmem and the
// stream clocks.
func (s *Service) CheckpointVP(vp, device int) (VPCheckpoint, error) {
	ck := VPCheckpoint{VP: vp, Device: device, Registered: s.registered(vp)}
	s.memMu.Lock()
	guests := make([]devmem.Ptr, 0, len(s.vpAllocs[vp]))
	for g := range s.vpAllocs[vp] {
		guests = append(guests, g)
	}
	sort.Slice(guests, func(i, j int) bool { return guests[i] < guests[j] })
	devs := make([]devmem.Ptr, len(guests))
	for i, g := range guests {
		devs[i] = s.vpAllocs[vp][g]
	}
	s.memMu.Unlock()
	for i, g := range guests {
		n, err := s.GPU.Mem.Size(devs[i])
		if err != nil {
			return VPCheckpoint{}, fmt.Errorf("core: checkpoint vp %d: %w", vp, err)
		}
		data, err := s.GPU.Mem.Read(devs[i], 0, n)
		if err != nil {
			return VPCheckpoint{}, fmt.Errorf("core: checkpoint vp %d: %w", vp, err)
		}
		ck.Allocs = append(ck.Allocs, devmem.Entry{Ptr: g, Data: data})
	}
	lo := vp * streamsPerVP
	ck.Streams = s.GPU.StreamFrontiers(lo, lo+streamsPerVP)
	return ck, nil
}

// restoreStats reports what RestoreVP did, for the migration counters.
type restoreStats struct {
	allocs  int64
	bytes   int64
	rebased int64
}

// RestoreVP replays a VP checkpoint onto this device: each allocation is
// re-created at its original address when the span is free (AllocAt), or at
// a fresh address with a guest→device rebase entry when another VP already
// holds that span; buffer bytes are restored; the VP's stream clocks are
// lifted so no replayed stream can schedule before work it already observed
// completing; and the VP is re-registered if it was registered at capture.
// On error the device is rolled back to its pre-restore state.
func (s *Service) RestoreVP(ck VPCheckpoint) (restoreStats, error) {
	var st restoreStats
	table := make(map[devmem.Ptr]devmem.Ptr, len(ck.Allocs))
	undo := func() {
		for _, d := range table {
			_ = s.GPU.Mem.Free(d)
		}
	}
	for _, e := range ck.Allocs {
		dev := e.Ptr
		err := s.GPU.Mem.AllocAt(e.Ptr, len(e.Data))
		if errors.Is(err, devmem.ErrSpanBusy) {
			dev, err = s.GPU.Mem.Alloc(len(e.Data))
			if err == nil {
				st.rebased++
			}
		}
		if err != nil {
			undo()
			return restoreStats{}, fmt.Errorf("core: restore vp %d: %w", ck.VP, err)
		}
		table[e.Ptr] = dev
		if err := s.GPU.Mem.Write(dev, 0, e.Data); err != nil {
			undo()
			return restoreStats{}, fmt.Errorf("core: restore vp %d: %w", ck.VP, err)
		}
		st.allocs++
		st.bytes += int64(len(e.Data))
	}
	for _, f := range ck.Streams {
		s.GPU.LiftStream(f.Stream, f.Ready)
	}
	if len(table) > 0 {
		s.memMu.Lock()
		if old := s.vpAllocs[ck.VP]; len(old) > 0 {
			s.memMu.Unlock()
			undo()
			return restoreStats{}, fmt.Errorf("core: restore vp %d: vp already holds %d allocations here", ck.VP, len(old))
		}
		s.vpAllocs[ck.VP] = table
		s.memMu.Unlock()
	}
	if ck.Registered {
		s.RegisterVP(ck.VP)
	}
	return st, nil
}

// evictVP releases a VP's device-side context after a successful migration:
// tracked allocations are freed and the VP is deregistered from the
// batching logic. The caller holds the VP's migration gate and has drained
// the device, so no job can reference the freed memory.
func (s *Service) evictVP(vp int) {
	s.memMu.Lock()
	t := s.vpAllocs[vp]
	delete(s.vpAllocs, vp)
	s.memMu.Unlock()
	devs := make([]devmem.Ptr, 0, len(t))
	for _, d := range t {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	for _, d := range devs {
		_ = s.GPU.Mem.Free(d)
	}
	if s.registered(vp) {
		s.deregister(vp)
		// The departed VP may have been the one the all-stopped predicate
		// was waiting on; give the survivors' queued batch a chance to go.
		s.maybeDispatch()
	}
}

// Checkpoint is a serialized image of a farm's device-side state: one
// VPCheckpoint per VP, each remembering its device. Encode/DecodeCheckpoint
// move it to and from its one binary representation, and
// SaveCheckpoint/LoadCheckpoint move images to and from disk so a daemon
// restart can restore its fleet.
type Checkpoint struct {
	Devices int
	VPs     []VPCheckpoint
}

// CheckpointCodec names the checkpoint serialization. There is one;
// bench/ pins the Encode(CheckpointBinary) spelling.
type CheckpointCodec uint8

// CheckpointBinary is the hand-rolled varint encoding (see Marshal).
const CheckpointBinary CheckpointCodec = 1

// ckptMagic opens a checkpoint image; its last byte is the format version.
var ckptMagic = [4]byte{0xD6, 'C', 'K', 1}

// Encode is Marshal under the spelling bench/ pins. The error is always nil.
func (ck *Checkpoint) Encode(CheckpointCodec) ([]byte, error) { return ck.Marshal(), nil }

// SaveCheckpoint writes the encoded checkpoint to path atomically (tmp file
// + rename), so a crash mid-write never leaves a torn image.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, ck.Marshal(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads and decodes a checkpoint image from disk.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// Marshal serializes the checkpoint to its one binary image, laid out as:
//
//	magic[4] | uvarint devices | uvarint nVPs | VPs...
//
// each VP as:
//
//	varint vp | varint device | byte registered |
//	uvarint nAllocs { uvarint ptr | uvarint len | raw bytes } |
//	uvarint nStreams { varint stream | 8-byte LE float64 bits }
func (ck *Checkpoint) Marshal() []byte {
	out := append([]byte(nil), ckptMagic[:]...)
	out = binary.AppendUvarint(out, uint64(ck.Devices))
	out = binary.AppendUvarint(out, uint64(len(ck.VPs)))
	for _, v := range ck.VPs {
		out = binary.AppendVarint(out, int64(v.VP))
		out = binary.AppendVarint(out, int64(v.Device))
		reg := byte(0)
		if v.Registered {
			reg = 1
		}
		out = append(out, reg)
		out = binary.AppendUvarint(out, uint64(len(v.Allocs)))
		for _, e := range v.Allocs {
			out = binary.AppendUvarint(out, uint64(e.Ptr))
			out = binary.AppendUvarint(out, uint64(len(e.Data)))
			out = append(out, e.Data...)
		}
		out = binary.AppendUvarint(out, uint64(len(v.Streams)))
		for _, f := range v.Streams {
			out = binary.AppendVarint(out, int64(f.Stream))
			var bits [8]byte
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(f.Ready))
			out = append(out, bits[:]...)
		}
	}
	return out
}

// ErrBadCheckpoint reports a corrupt or truncated checkpoint image.
var ErrBadCheckpoint = errors.New("core: bad checkpoint image")

// ckptReader is a bounds-checked cursor over a checkpoint image.
type ckptReader struct {
	data []byte
	pos  int
	err  error
}

func (r *ckptReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrBadCheckpoint, what, r.pos)
	}
}

// padded reports whether the n-byte varint at the cursor ends in a zero
// byte: a longer spelling of a value that fits in fewer bytes. The decoder
// refuses those (and a registered flag other than 0 or 1), so an accepted
// image is always the one Encode would write.
func (r *ckptReader) padded(n int) bool { return n > 1 && r.data[r.pos+n-1] == 0 }

func (r *ckptReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || r.padded(n) {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *ckptReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 || r.padded(n) {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *ckptReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) || r.pos+n < r.pos {
		r.fail(what)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.pos:r.pos+n])
	r.pos += n
	return out
}

// maxCheckpointItems caps per-list element counts while decoding, so a
// corrupt length prefix cannot force a huge allocation before the bounds
// checks run (the IPC wire reader applies the same discipline).
const maxCheckpointItems = 1 << 20

func (r *ckptReader) count(what string) int {
	v := r.uvarint(what)
	if v > maxCheckpointItems {
		r.fail(what + " count too large")
		return 0
	}
	return int(v)
}

// DecodeCheckpoint deserializes a checkpoint image. Anything that does not
// open with ckptMagic, is truncated, or carries trailing bytes is rejected
// with ErrBadCheckpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(data, ckptMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	r := &ckptReader{data: data, pos: len(ckptMagic)}
	ck := &Checkpoint{Devices: int(r.uvarint("devices"))}
	nVPs := r.count("vps")
	for i := 0; i < nVPs && r.err == nil; i++ {
		v := VPCheckpoint{
			VP:     int(r.varint("vp")),
			Device: int(r.varint("device")),
		}
		if reg := r.bytes(1, "registered"); r.err == nil {
			if reg[0] > 1 {
				r.fail("registered flag")
			}
			v.Registered = reg[0] == 1
		}
		nAllocs := r.count("allocs")
		for a := 0; a < nAllocs && r.err == nil; a++ {
			p := devmem.Ptr(r.uvarint("alloc ptr"))
			n := r.uvarint("alloc len")
			if n > uint64(len(r.data)) {
				r.fail("alloc len too large")
				break
			}
			v.Allocs = append(v.Allocs, devmem.Entry{Ptr: p, Data: r.bytes(int(n), "alloc data")})
		}
		nStreams := r.count("streams")
		for sIdx := 0; sIdx < nStreams && r.err == nil; sIdx++ {
			stream := int(r.varint("stream"))
			bits := r.bytes(8, "stream clock")
			if r.err != nil {
				break
			}
			v.Streams = append(v.Streams, hostgpu.StreamFrontier{
				Stream: stream,
				Ready:  math.Float64frombits(binary.LittleEndian.Uint64(bits)),
			})
		}
		ck.VPs = append(ck.VPs, v)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(data)-r.pos)
	}
	return ck, nil
}
