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
