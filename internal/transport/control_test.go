package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestControlFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 1000)}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteControlFrame(&buf, uint8(i+1), p); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadControlFrame(&buf)
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

func TestControlFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteControlFrame(&buf, 7, []byte("control payload under test")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	// Flip one payload byte: the CRC must catch it.
	corrupt := bytes.Clone(frame)
	corrupt[controlHeaderBytes+3] ^= 0x40
	if _, _, err := ReadControlFrame(bytes.NewReader(corrupt)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt payload: err = %v, want checksum mismatch", err)
	}

	// Truncate mid-payload: must fail loudly, not hang or return junk.
	if _, _, err := ReadControlFrame(bytes.NewReader(frame[:len(frame)-6])); err == nil {
		t.Fatal("truncated frame: expected error")
	}

	// Wrong magic: a peer speaking a data-plane format.
	wrong := bytes.Clone(frame)
	wrong[0] ^= 0xFF
	if _, _, err := ReadControlFrame(bytes.NewReader(wrong)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v, want magic error", err)
	}
}

func TestControlFrameTruncatedHeader(t *testing.T) {
	if _, _, err := ReadControlFrame(bytes.NewReader([]byte{0x43})); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestControlFrameLengthNotTrusted: a header claiming the maximum payload
// followed by nothing must fail having allocated next to nothing — the
// payload buffer grows with what arrives, not with what the header says.
func TestControlFrameLengthNotTrusted(t *testing.T) {
	var header [controlHeaderBytes]byte
	binary.LittleEndian.PutUint32(header[0:4], controlFrameMagic)
	header[4] = 7
	binary.LittleEndian.PutUint32(header[5:9], MaxControlPayload)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadControlFrame(bytes.NewReader(header[:]))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "transport: control payload") {
		t.Fatalf("err = %v, want a control payload error", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
		t.Fatalf("a corrupt length field cost %d bytes of allocation, want < 4 MiB", delta)
	}
}

// FuzzReadControlFrame: ReadControlFrame over arbitrary bytes never panics,
// and a frame it accepts re-encodes to exactly the bytes it consumed; the
// same bytes used as a payload round-trip through WriteControlFrame, and
// every truncation and sampled single-bit flip of that frame fails loudly.
func FuzzReadControlFrame(f *testing.F) {
	var frame bytes.Buffer
	if err := WriteControlFrame(&frame, 7, []byte("control payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(7), frame.Bytes())
	f.Add(uint8(1), []byte{})
	f.Add(uint8(255), []byte{0x43, 0x56, 0x42, 0x45, 0, 0xff, 0xff, 0xff, 0x3f})
	f.Fuzz(func(t *testing.T, typ uint8, data []byte) {
		r := bytes.NewReader(data)
		if gotTyp, payload, err := ReadControlFrame(r); err == nil {
			var again bytes.Buffer
			if err := WriteControlFrame(&again, gotTyp, payload); err != nil {
				t.Fatal(err)
			}
			if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("accepted frame re-encodes to %x, read %x", again.Bytes(), consumed)
			}
		}

		var buf bytes.Buffer
		if err := WriteControlFrame(&buf, typ, data); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()
		gotTyp, payload, err := ReadControlFrame(bytes.NewReader(encoded))
		if err != nil || gotTyp != typ || !bytes.Equal(payload, data) {
			t.Fatalf("round trip: type %d payload %x err %v, want type %d payload %x", gotTyp, payload, err, typ, data)
		}
		for cut := 0; cut < len(encoded); cut++ {
			if _, _, err := ReadControlFrame(bytes.NewReader(encoded[:cut])); err == nil {
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
			if _, _, err := ReadControlFrame(bytes.NewReader(corrupt)); err == nil {
				t.Fatalf("bit flip at %d decoded", bit)
			}
		}
	})
}
