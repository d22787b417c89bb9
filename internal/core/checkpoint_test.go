package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/devmem"
	"repro/internal/hostgpu"
)

// goldenCheckpoint is a small fixed farm image: two VPs on two devices, an
// empty allocation, a negative and a fractional stream clock.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{Devices: 2, VPs: []VPCheckpoint{
		{
			VP: 0, Device: 0, Registered: true,
			Allocs: []devmem.Entry{
				{Ptr: 0x1000, Data: []byte{1, 2, 3, 4}},
				{Ptr: 0x2000, Data: []byte{}},
			},
			Streams: []hostgpu.StreamFrontier{{Stream: 0, Ready: 1.5}, {Stream: 3, Ready: -0.25}},
		},
		{
			VP: 300, Device: 1,
			Allocs: []devmem.Entry{{Ptr: 0x1000, Data: []byte("sigmavp")}},
		},
	}}
}

// goldenCheckpointHex is Encode of goldenCheckpoint as written by the commit
// before the gob checkpoint codec was removed. Images saved by an older
// `sigmavpd -checkpoint-out` must keep loading, so these bytes only change
// together with the version byte of ckptMagic.
const goldenCheckpointHex = "d6434b01020200000102802004010203048040000200000000000000f83f06000000000000d0bfd8040200018020077369676d61767000"

// TestCheckpointGolden pins the on-disk format in both directions.
func TestCheckpointGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenCheckpointHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := goldenCheckpoint().Encode(CheckpointBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got %x\nwant %x", got, want)
	}
	ck, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if back, _ := ck.Encode(CheckpointBinary); !bytes.Equal(back, want) {
		t.Fatalf("golden image does not survive decode→encode:\n got %x\nwant %x", back, want)
	}
	if len(ck.VPs) != 2 || ck.VPs[1].VP != 300 || string(ck.VPs[1].Allocs[0].Data) != "sigmavp" ||
		ck.VPs[0].Streams[1].Ready != -0.25 || !ck.VPs[0].Registered || ck.VPs[1].Registered {
		t.Fatalf("golden image decoded to %+v", ck)
	}
}

// FuzzDecodeCheckpoint feeds hostile bytes to the image decoder. It must
// never panic, must refuse with ErrBadCheckpoint, must not build more state
// than the input could describe (no allocation sized from an unchecked
// count), and any image it accepts has exactly one spelling: re-encoding it
// gives the input back.
func FuzzDecodeCheckpoint(f *testing.F) {
	empty, _ := (&Checkpoint{Devices: 4}).Encode(CheckpointBinary)
	twoVP, _ := goldenCheckpoint().Encode(CheckpointBinary)
	for _, img := range [][]byte{empty, twoVP} {
		f.Add(img)
		for n := 0; n <= 64 && n < len(img); n++ {
			f.Add(img[:n])
		}
	}
	// A VP count far beyond what the image holds.
	f.Add(append(append([]byte{}, ckptMagic[:]...), 1, 0xFF, 0xFF, 0x3F))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("decode error not typed: %v", err)
			}
			return
		}
		items, payload := len(ck.VPs), int64(0)
		for i := range ck.VPs {
			items += len(ck.VPs[i].Allocs) + len(ck.VPs[i].Streams)
			payload += ck.VPs[i].Bytes()
		}
		if items > len(data) || payload > int64(len(data)) {
			t.Fatalf("%d-byte image decoded to %d items, %d payload bytes", len(data), items, payload)
		}
		if back, _ := ck.Encode(CheckpointBinary); !bytes.Equal(back, data) {
			t.Fatalf("accepted image is not canonical:\n  in %x\n out %x", data, back)
		}
	})
}
