package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ebv/internal/graph"
)

// encodeV4Frame writes one v4 frame for (job, step, active, batch) and
// returns the wire bytes.
func encodeV4Frame(t testing.TB, job uint32, step int, active bool, batch *MessageBatch) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var s v4Scratch
	n, err := writeJobFrameV4(bw, job, step, active, batch, &s)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("writeJobFrameV4 reported %d wire bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// decodeV4Frame reads one v4 frame back.
func decodeV4Frame(frame []byte) (job uint32, step int, active bool, batch *MessageBatch, err error) {
	var s v4Scratch
	return readJobFrameV4(bufio.NewReader(bytes.NewReader(frame)), &s)
}

// assertV4RoundTrip encodes batch and asserts the decode is bit-identical.
func assertV4RoundTrip(t *testing.T, batch *MessageBatch) {
	t.Helper()
	frame := encodeV4Frame(t, 7, 42, true, batch)
	job, step, active, got, err := decodeV4Frame(frame)
	if err != nil {
		t.Fatalf("decode: %v (batch ids %v vals %v)", err, batch.IDs, batch.Vals)
	}
	if job != 7 || step != 42 || !active {
		t.Fatalf("frame metadata round-tripped to job %d step %d active %v", job, step, active)
	}
	if got.Len() != batch.Len() || got.Width != batch.Width {
		t.Fatalf("decoded %d rows width %d, want %d rows width %d", got.Len(), got.Width, batch.Len(), batch.Width)
	}
	for i := range batch.IDs {
		if got.IDs[i] != batch.IDs[i] {
			t.Fatalf("row %d id = %d, want %d", i, got.IDs[i], batch.IDs[i])
		}
	}
	for i := range batch.Vals {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(batch.Vals[i]) {
			t.Fatalf("value %d = %x, want %x (not bit-identical)",
				i, math.Float64bits(got.Vals[i]), math.Float64bits(batch.Vals[i]))
		}
	}
	RecycleBatch(got)
}

// TestV4FrameRoundTripPayloads: the payload shapes of the five apps and
// the float edge cases all round-trip bit-exactly.
func TestV4FrameRoundTripPayloads(t *testing.T) {
	t.Run("integral-labels", func(t *testing.T) { // CC/SSSP-style
		b := NewMessageBatch(1)
		for i := 0; i < 200; i++ {
			b.AppendScalar(graph.VertexID(i*3), float64(i%17))
		}
		assertV4RoundTrip(t, b)
	})
	t.Run("noisy-mantissas", func(t *testing.T) { // PageRank-style
		rng := rand.New(rand.NewSource(2))
		b := NewMessageBatch(1)
		for i := 0; i < 200; i++ {
			b.AppendScalar(graph.VertexID(rng.Intn(1000)), rng.Float64()/float64(1+rng.Intn(100)))
		}
		assertV4RoundTrip(t, b)
	})
	t.Run("wide-rows", func(t *testing.T) { // Aggregate-style
		b := NewMessageBatch(8)
		for i := 0; i < 50; i++ {
			row := make([]float64, 8)
			for j := range row {
				row[j] = float64((i + j) % 7)
			}
			b.AppendRow(graph.VertexID(i), row)
		}
		assertV4RoundTrip(t, b)
	})
	t.Run("edge-values", func(t *testing.T) {
		b := NewMessageBatch(1)
		for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e16, -1e16,
			float64(math.MaxInt64), float64(math.MinInt64), 0.1, -0.1} {
			b.AppendScalar(0, v)
			b.AppendScalar(math.MaxUint32, v)
		}
		assertV4RoundTrip(t, b)
	})
	t.Run("descending-ids", func(t *testing.T) {
		b := NewMessageBatch(1)
		for i := 200; i > 0; i-- {
			b.AppendScalar(graph.VertexID(i*1000), float64(i))
		}
		assertV4RoundTrip(t, b)
	})
}

// TestV4FrameCompressesIntegralPayloads pins the tentpole's size win: an
// ascending-id, small-integer payload — the CC/SSSP/Aggregate shape — must
// encode at least 3x smaller than raw columns (4-byte ids, 8-byte values).
func TestV4FrameCompressesIntegralPayloads(t *testing.T) {
	b := NewMessageBatch(1)
	for i := 0; i < 4096; i++ {
		b.AppendScalar(graph.VertexID(i*7), float64(i%64))
	}
	frame := encodeV4Frame(t, 1, 0, true, b)
	raw := jobFrameHeaderBytesV4 + b.Len()*4 + b.Len()*8
	if len(frame)*3 > raw {
		t.Fatalf("v4 frame is %d bytes, raw layout %d: less than the 3x target", len(frame), raw)
	}
}

// TestV4FrameRawFallback: a payload the packed codec would expand (high-
// entropy mantissas) ships raw — the frame never exceeds raw size by more
// than the header.
func TestV4FrameRawFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewMessageBatch(1)
	for i := 0; i < 512; i++ {
		b.AppendScalar(graph.VertexID(i), math.Float64frombits(rng.Uint64()))
	}
	frame := encodeV4Frame(t, 1, 0, true, b)
	if flags := frame[13]; flags&v4FlagPackedVal != 0 {
		t.Fatalf("high-entropy payload kept the packed flag (flags %#x)", flags)
	}
	if max := jobFrameHeaderBytesV4 + 5*b.Len() + 8*b.Len(); len(frame) > max {
		t.Fatalf("fallback frame is %d bytes, want <= %d", len(frame), max)
	}
	assertV4RoundTrip(t, b)
}

// TestV4FrameEmptyCanonical: empty and nil batches encode the canonical
// empty frame (no columns, no flags) and decode to a nil batch.
func TestV4FrameEmptyCanonical(t *testing.T) {
	for _, b := range []*MessageBatch{nil, NewMessageBatch(3)} {
		frame := encodeV4Frame(t, 9, 1, false, b)
		if len(frame) != jobFrameHeaderBytesV4 {
			t.Fatalf("empty frame is %d bytes, want the bare header (%d)", len(frame), jobFrameHeaderBytesV4)
		}
		job, step, active, got, err := decodeV4Frame(frame)
		if err != nil || job != 9 || step != 1 || active || got != nil {
			t.Fatalf("empty frame decoded to job %d step %d active %v batch %v err %v", job, step, active, got, err)
		}
	}
}

// TestV4FrameTruncationRejected: every proper prefix of a v4 frame fails
// to decode — no truncation point yields a silent short read.
func TestV4FrameTruncationRejected(t *testing.T) {
	b := NewMessageBatch(2)
	for i := 0; i < 40; i++ {
		b.AppendRow(graph.VertexID(i*5), []float64{float64(i), 1.5 * float64(i)})
	}
	frame := encodeV4Frame(t, 3, 8, true, b)
	for cut := 0; cut < len(frame); cut++ {
		_, _, _, got, err := decodeV4Frame(frame[:cut])
		if err == nil {
			t.Fatalf("frame truncated to %d/%d bytes decoded silently (batch %v)", cut, len(frame), got)
		}
		// Only an end before the first byte is a clean end of stream (the
		// demux reads it as the peer leaving); every later cut is loud.
		if (err == io.EOF) != (cut == 0) {
			t.Fatalf("frame truncated to %d/%d bytes: err = %v", cut, len(frame), err)
		}
	}
}

// TestV4FrameBitFlipRejected: every single-bit corruption of a v4 frame is
// rejected loudly (the CRC-32C covers header fields and both columns; the
// magic word fails its own check).
func TestV4FrameBitFlipRejected(t *testing.T) {
	b := NewMessageBatch(1)
	for i := 0; i < 30; i++ {
		b.AppendScalar(graph.VertexID(i*9), float64(i%5)+0.25)
	}
	frame := encodeV4Frame(t, 6, 2, true, b)
	for bit := 0; bit < len(frame)*8; bit++ {
		corrupt := bytes.Clone(frame)
		corrupt[bit/8] ^= 1 << (bit % 8)
		if _, _, _, got, err := decodeV4Frame(corrupt); err == nil {
			t.Fatalf("bit flip at %d decoded silently to %v / %v", bit, got.IDs, got.Vals)
		}
	}
}

// TestV4FrameRejectsCorruptHeaders: a header claiming an impossible shape
// is rejected from the header alone, before anything is allocated or read
// for it — a corrupt or hostile peer cannot force a giant allocation.
func TestV4FrameRejectsCorruptHeaders(t *testing.T) {
	mk := func(width, count, idBytes, valBytes uint32) []byte {
		buf := make([]byte, jobFrameHeaderBytesV4)
		binary.LittleEndian.PutUint32(buf[0:4], jobFrameMagicV4)
		buf[13] = v4FlagDeltaIDs
		binary.LittleEndian.PutUint32(buf[14:18], width)
		binary.LittleEndian.PutUint32(buf[18:22], count)
		binary.LittleEndian.PutUint32(buf[22:26], idBytes)
		binary.LittleEndian.PutUint32(buf[26:30], valBytes)
		return buf
	}
	cases := map[string][]byte{
		"zero-width":      mk(0, 5, 5, 40),
		"huge-width":      mk(1<<20, 5, 5, 40),
		"huge-count":      mk(1, 1<<30, 1<<30, 0),
		"short-id-column": mk(1, 2, 1, 16),
		"long-id-column":  mk(1, 2, 11, 16),
		"bad-raw-values":  mk(1, 2, 2, 15),
		"overflow-values": mk(1<<16, 1<<28, 1<<28, 0),
	}
	for name, frame := range cases {
		_, _, _, _, err := decodeV4Frame(frame)
		if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want a shape error from the header alone", name, err)
		}
	}

	// Flag bit 0x04 is assigned to nothing: a frame carrying it is rejected
	// even when its CRC is valid.
	frame := encodeV4Frame(t, 1, 0, true, jobBatch(4, 1, 1))
	frame[13] |= 1 << 2
	tab := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(crc32.Update(0, tab, frame[4:30]), tab, frame[jobFrameHeaderBytesV4:])
	binary.LittleEndian.PutUint32(frame[30:34], crc)
	if _, _, _, _, err := decodeV4Frame(frame); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Fatalf("flag 0x04 with a valid CRC: err = %v, want an unknown-flags error", err)
	}
}

// TestJobMuxCrossWidthFrameRejected is the demux-side half of the
// cross-width guarantee: a well-formed frame whose width disagrees with
// the open job's, written straight onto the connection (bypassing the
// sender-side check), fails the receiving Exchange loudly.
func TestJobMuxCrossWidthFrameRejected(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts, err := d.OpenJob(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(d.nodes[0].conns[1])
	var s v4Scratch
	if _, err := writeJobFrameV4(bw, 5, 0, true, jobBatch(4, 9, 1), &s); err != nil {
		t.Fatal(err)
	}
	if _, err := ts[1].Exchange(1, 0, nil, true); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("cross-width v4 frame: err = %v, want a loud width error", err)
	}
}

// FuzzVarintColumnRoundTrip is the satellite fuzz target over the v4
// column codecs: arbitrary batches must round-trip decode(encode(x)) == x
// bit-exactly, every truncation of the encoded frame must fail loudly,
// and every single-bit flip must be rejected (CRC-32C), never decoded.
func FuzzVarintColumnRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 240, 63}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 36), uint8(2))
	f.Add([]byte{7, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, w uint8) {
		width := int(w%8) + 1
		rowBytes := 4 + 8*width
		b := NewMessageBatch(width)
		row := make([]float64, width)
		for len(raw) >= rowBytes && b.Len() < 1024 {
			id := graph.VertexID(binary.LittleEndian.Uint32(raw))
			for j := 0; j < width; j++ {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[4+8*j:]))
			}
			b.AppendRow(id, row)
			raw = raw[rowBytes:]
		}

		frame := encodeV4Frame(t, 11, 3, true, b)
		_, _, _, got, err := decodeV4Frame(frame)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v (ids %v vals %v)", err, b.IDs, b.Vals)
		}
		if b.Len() == 0 {
			if got != nil {
				t.Fatalf("empty batch decoded to %d rows", got.Len())
			}
		} else {
			if got.Len() != b.Len() || got.Width != b.Width {
				t.Fatalf("decoded %d rows width %d, want %d width %d", got.Len(), got.Width, b.Len(), b.Width)
			}
			for i := range b.IDs {
				if got.IDs[i] != b.IDs[i] {
					t.Fatalf("row %d id = %d, want %d", i, got.IDs[i], b.IDs[i])
				}
			}
			for i := range b.Vals {
				if math.Float64bits(got.Vals[i]) != math.Float64bits(b.Vals[i]) {
					t.Fatalf("value %d = %x, want %x", i, math.Float64bits(got.Vals[i]), math.Float64bits(b.Vals[i]))
				}
			}
			RecycleBatch(got)
		}

		for cut := 0; cut < len(frame); cut++ {
			if _, _, _, gb, err := decodeV4Frame(frame[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded silently (%d rows)", cut, len(frame), gb.Len())
			}
		}
		// A full per-bit sweep is quadratic in frame size; sweep small
		// frames exhaustively and sample large ones.
		stride := 1
		if len(frame) > 512 {
			stride = len(frame) / 64
		}
		for bit := 0; bit < len(frame)*8; bit += stride {
			corrupt := bytes.Clone(frame)
			corrupt[bit/8] ^= 1 << (bit % 8)
			if _, _, _, gb, err := decodeV4Frame(corrupt); err == nil {
				t.Fatalf("bit flip at %d decoded silently (%d rows)", bit, gb.Len())
			}
		}
	})
}
