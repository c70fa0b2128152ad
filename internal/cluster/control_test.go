package cluster

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ebv/internal/frame/frametest"
)

// encodeFrame is writeFrame into a fresh buffer.
func encodeFrame(t testing.TB, typ uint8, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	var mu sync.Mutex
	if err := writeFrame(&mu, &buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestControlFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 1000)}
	var buf bytes.Buffer
	for i, p := range payloads {
		buf.Write(encodeFrame(t, uint8(i+1), p))
	}
	for i, p := range payloads {
		typ, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if typ != uint8(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %v, want %v", i, got, p)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after frames", buf.Len())
	}
}

// TestControlFrameFormat runs the damage every framed format must survive
// (frametest.Check, the suite frame's own tests run over the other five)
// through the control-frame reader.
func TestControlFrameFormat(t *testing.T) {
	frametest.Check(t, "EBVC", encodeFrame(t, msgDone, []byte("control payload under test")), func(b []byte) error {
		_, _, err := readFrame(bytes.NewReader(b))
		return err
	})
}

func TestControlFrameCorruptionDetected(t *testing.T) {
	frame := encodeFrame(t, 7, []byte("control payload under test"))

	// Flip the last payload byte: the CRC must catch it.
	corrupt := bytes.Clone(frame)
	corrupt[len(corrupt)-5] ^= 0x40
	if _, _, err := readFrame(bytes.NewReader(corrupt)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt payload: err = %v, want checksum mismatch", err)
	}

	// Truncate mid-payload: must fail loudly, not hang or return junk.
	if _, _, err := readFrame(bytes.NewReader(frame[:len(frame)-6])); err == nil {
		t.Fatal("truncated frame: expected error")
	}

	// Wrong magic: a peer speaking a data-plane format.
	wrong := bytes.Clone(frame)
	wrong[0] ^= 0xFF
	if _, _, err := readFrame(bytes.NewReader(wrong)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v, want magic error", err)
	}
}

func TestControlFrameTruncatedHeader(t *testing.T) {
	if _, _, err := readFrame(bytes.NewReader([]byte{0x43})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestControlFrameLengthNotTrusted: a header claiming the maximum payload
// followed by nothing must fail having allocated next to nothing — the
// payload buffer grows with what arrives, not with what the header says.
func TestControlFrameLengthNotTrusted(t *testing.T) {
	header := controlFrame.Begin(0, 7, maxControlPayload)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cluster: control payload") {
		t.Fatalf("err = %v, want a control payload error", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
		t.Fatalf("a corrupt length field cost %d bytes of allocation, want < 4 MiB", delta)
	}
}

// FuzzReadControlFrame: readFrame over arbitrary bytes never panics, and a
// frame it accepts re-encodes to exactly the bytes it consumed; the same
// bytes used as a payload round-trip through writeFrame, and every
// truncation and sampled single-bit flip of that frame fails loudly.
func FuzzReadControlFrame(f *testing.F) {
	f.Add(uint8(7), encodeFrame(f, 7, []byte("control payload")))
	f.Add(uint8(1), []byte{})
	// A frame in the layout before EBVC carried a version word.
	f.Add(uint8(255), []byte{0x43, 0x56, 0x42, 0x45, 0, 0xff, 0xff, 0xff, 0x3f})
	f.Fuzz(func(t *testing.T, typ uint8, data []byte) {
		r := bytes.NewReader(data)
		if gotTyp, payload, err := readFrame(r); err == nil {
			again := encodeFrame(t, gotTyp, payload)
			if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again, consumed) {
				t.Fatalf("accepted frame re-encodes to %x, read %x", again, consumed)
			}
		}

		encoded := encodeFrame(t, typ, data)
		gotTyp, payload, err := readFrame(bytes.NewReader(encoded))
		if err != nil || gotTyp != typ || !bytes.Equal(payload, data) {
			t.Fatalf("round trip: type %d payload %x err %v, want type %d payload %x", gotTyp, payload, err, typ, data)
		}
		for cut := 0; cut < len(encoded); cut++ {
			if _, _, err := readFrame(bytes.NewReader(encoded[:cut])); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded", cut, len(encoded))
			}
		}
		stride := 1
		if len(encoded) > 512 {
			stride = len(encoded) / 64
		}
		for bit := 0; bit < len(encoded)*8; bit += stride {
			corrupt := bytes.Clone(encoded)
			corrupt[bit/8] ^= 1 << (bit % 8)
			if _, _, err := readFrame(bytes.NewReader(corrupt)); err == nil {
				t.Fatalf("bit flip at %d decoded", bit)
			}
		}
	})
}
