package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ebv/internal/frame"
	"ebv/internal/graph"
)

// encodeV4Frame writes the direct-exchange bundle worker 0 of a 2-worker
// mesh sends worker 1 for (job, step, active, batch) — one block, none for
// an empty batch — and returns the wire bytes.
func encodeV4Frame(t testing.TB, job uint32, step int, active bool, batch *MessageBatch) []byte {
	t.Helper()
	var blocks []wireBlock
	if batch.Len() > 0 {
		raw, err := appendBlock(nil, 0, 1, batch)
		if err != nil {
			t.Fatal(err)
		}
		blocks = []wireBlock{{src: 0, dst: 1, raw: raw}}
	}
	var flags byte
	if active {
		flags = bundleActive
	}
	width := 1
	if batch != nil {
		width = batch.Width
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	n, err := writeBundle(bw, job, step, 0, flags, width, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("writeBundle reported %d wire bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// readAsWorker1 reads data as worker 1 of a 2-worker mesh, sent by worker 0.
func readAsWorker1(data []byte) (bundle, error) {
	var s bundleScratch
	return readBundle(bufio.NewReader(bytes.NewReader(data)), 2, 0, 1, &s)
}

// decodeV4Frame reads such a bundle back as worker 1 and decodes its block.
func decodeV4Frame(data []byte) (job uint32, step int, active bool, batch *MessageBatch, err error) {
	b, err := readAsWorker1(data)
	if err != nil {
		return 0, 0, false, nil, err
	}
	if len(b.blocks) > 0 {
		batch = decodeBlock(b.blocks[0].raw, b.width)
	}
	return b.job, b.step, b.flags&bundleActive != 0, batch, nil
}

// sameRows reports the first row or value where got differs from want,
// comparing values by their bits.
func sameRows(got, want *MessageBatch) error {
	if got.Len() != want.Len() || got.Width != want.Width {
		return fmt.Errorf("decoded %d rows width %d, want %d rows width %d", got.Len(), got.Width, want.Len(), want.Width)
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			return fmt.Errorf("row %d id = %d, want %d", i, got.IDs[i], want.IDs[i])
		}
	}
	for i := range want.Vals {
		if g, w := math.Float64bits(got.Vals[i]), math.Float64bits(want.Vals[i]); g != w {
			return fmt.Errorf("value %d = %x, want %x (not bit-identical)", i, g, w)
		}
	}
	return nil
}

// assertV4RoundTrip encodes batch, asserts the bundle is exactly its
// header plus the block's fixed-width columns, and that the decode is
// bit-identical.
func assertV4RoundTrip(t *testing.T, batch *MessageBatch) {
	t.Helper()
	data := encodeV4Frame(t, 7, 42, true, batch)
	if want := bundleHeaderBytes + blockBytes(batch.Len(), batch.Width); len(data) != want {
		t.Fatalf("bundle is %d bytes, want %d", len(data), want)
	}
	job, step, active, got, err := decodeV4Frame(data)
	if err != nil {
		t.Fatalf("decode: %v (batch ids %v vals %v)", err, batch.IDs, batch.Vals)
	}
	if job != 7 || step != 42 || !active {
		t.Fatalf("frame metadata round-tripped to job %d step %d active %v", job, step, active)
	}
	if err := sameRows(got, batch); err != nil {
		t.Fatal(err)
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
			math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			1e16, -1e16, float64(math.MaxInt64), float64(math.MinInt64), 0.1, -0.1} {
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

// TestV4FrameEmptyCanonical: empty and nil batches send no block — the
// bundle is its bare header — and decode to a nil batch.
func TestV4FrameEmptyCanonical(t *testing.T) {
	for _, b := range []*MessageBatch{nil, NewMessageBatch(3)} {
		data := encodeV4Frame(t, 9, 1, false, b)
		if len(data) != bundleHeaderBytes {
			t.Fatalf("empty frame is %d bytes, want the bare header (%d)", len(data), bundleHeaderBytes)
		}
		job, step, active, got, err := decodeV4Frame(data)
		if err != nil || job != 9 || step != 1 || active || got != nil {
			t.Fatalf("empty frame decoded to job %d step %d active %v batch %v err %v", job, step, active, got, err)
		}
	}
}

// TestV4FrameTruncationRejected: every proper prefix of a bundle fails to
// decode — no truncation point yields a silent short read.
func TestV4FrameTruncationRejected(t *testing.T) {
	b := NewMessageBatch(2)
	for i := 0; i < 40; i++ {
		b.AppendRow(graph.VertexID(i*5), []float64{float64(i), 1.5 * float64(i)})
	}
	data := encodeV4Frame(t, 3, 8, true, b)
	for cut := 0; cut < len(data); cut++ {
		_, _, _, got, err := decodeV4Frame(data[:cut])
		if err == nil {
			t.Fatalf("frame truncated to %d/%d bytes decoded silently (batch %v)", cut, len(data), got)
		}
		// Only an end before the first byte is a clean end of stream (the
		// demux reads it as the peer leaving); every later cut is loud.
		if (err == io.EOF) != (cut == 0) {
			t.Fatalf("frame truncated to %d/%d bytes: err = %v", cut, len(data), err)
		}
	}
}

// TestV4FrameBitFlipRejected: every single-bit corruption of a bundle is
// rejected loudly (the CRC-32C covers header fields and both columns; the
// magic word fails its own check).
func TestV4FrameBitFlipRejected(t *testing.T) {
	b := NewMessageBatch(1)
	for i := 0; i < 30; i++ {
		b.AppendScalar(graph.VertexID(i*9), float64(i%5)+0.25)
	}
	data := encodeV4Frame(t, 6, 2, true, b)
	for bit := 0; bit < len(data)*8; bit++ {
		corrupt := bytes.Clone(data)
		corrupt[bit/8] ^= 1 << (bit % 8)
		if _, _, _, got, err := decodeV4Frame(corrupt); err == nil {
			t.Fatalf("bit flip at %d decoded silently to %v / %v", bit, got.IDs, got.Vals)
		}
	}
}

// sealBundle seals body as a direct-exchange bundle under a valid CRC, so
// only the shape checks can reject it.
func sealBundle(flags byte, nblocks, width int, body []byte) []byte {
	return sealBundleRound(0, flags, nblocks, width, body)
}

// sealBundleRound is sealBundle for any round.
func sealBundleRound(round int, flags byte, nblocks, width int, body []byte) []byte {
	h := make([]byte, bundleHeaderBytes, bundleHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(h[0:4], bundleMagic)
	h[12] = byte(round)
	h[13] = flags
	binary.LittleEndian.PutUint16(h[14:16], uint16(nblocks))
	binary.LittleEndian.PutUint32(h[16:20], uint32(width))
	binary.LittleEndian.PutUint32(h[20:24], uint32(len(body)))
	binary.LittleEndian.PutUint32(h[24:28], frame.Checksum(frame.Checksum(0, h[4:24]), body))
	return append(h, body...)
}

// blockHeader builds a 0 → 1 block header claiming count rows, followed by
// columnBytes zero bytes of columns.
func blockHeader(count uint32, columnBytes int) []byte {
	h := make([]byte, blockHeaderBytes+columnBytes)
	binary.LittleEndian.PutUint16(h[2:4], 1)
	binary.LittleEndian.PutUint32(h[4:8], count)
	return h
}

// TestV4FrameRejectsCorruptHeaders: a bundle or block header claiming an
// impossible shape is rejected under a valid CRC by the bundle read, so no
// block is ever decoded and no column allocated — a corrupt or hostile
// peer cannot force a giant allocation or a read past the bundle. (A
// bundle whose width disagrees with the job's is the demux's check:
// TestJobMuxCrossWidthFrameRejected.)
func TestV4FrameRejectsCorruptHeaders(t *testing.T) {
	mk := func(width int, count uint32, columnBytes int) []byte {
		return sealBundle(0, 1, width, blockHeader(count, columnBytes))
	}
	valid := func(width int) []byte {
		raw, err := appendBlock(nil, 0, 1, jobBatch(width, 5, 1))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	wideCap := maxWireValues/maxWireWidth + 1
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"zero-width", mk(0, 5, 60), "width"},
		{"huge-width", mk(1<<20, 5, 60), "width"},
		{"empty-block", mk(1, 0, 0), "wire cap"},
		{"count-past-cap", mk(1, maxWireMessages+1, 0), "wire cap"},
		{"values-past-cap", mk(maxWireWidth, uint32(wideCap), 0), "wire cap"},
		{"huge-count", mk(1, 1<<30, 0), "wire cap"},
		{"overflow-values", mk(1<<16, 1<<28, 0), "wire cap"},
		{"columns-overrun", mk(1, 2, blockBytes(2, 1)-blockHeaderBytes-1), "left in the bundle"},
		{"trailing-byte", sealBundle(0, 1, 1, append(valid(1), 0)), "after its 1 blocks"},
		{"wider-than-block", sealBundle(0, 1, 2, valid(1)), "left in the bundle"},
		{"narrower-than-block", sealBundle(0, 1, 1, valid(2)), "after its 1 blocks"},
		{"unknown-flags", sealBundle(1<<3, 0, 1, nil), "unknown flags"},
		{"blocks-beyond", sealBundle(0, 1, 1, nil), "claims"},
		{"too-many-blocks", sealBundle(0, 2, 1, make([]byte, 2*blockHeaderBytes)), "claims"},
		{"trailing-bytes", sealBundle(0, 0, 1, []byte{0}), "after its 0 blocks"},
		{"direct-round-1", sealBundleRound(1, 0, 0, 1, nil), "out of range"},
	} {
		if _, err := readAsWorker1(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a shape error containing %q", tc.name, err, tc.want)
		}
	}
	// The two blocks the rows above damage are sound in their own bundles.
	for _, w := range []int{1, 2} {
		if _, err := readAsWorker1(sealBundle(0, 1, w, valid(w))); err != nil {
			t.Fatalf("width-%d block in its own bundle: %v", w, err)
		}
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
	if _, err := d.nodes[0].conns[1].Write(encodeV4Frame(t, 5, 0, true, jobBatch(4, 9, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := ts[1].Exchange(1, 0, nil, true); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("cross-width frame: err = %v, want a loud width error", err)
	}
}

// FuzzBlockRoundTrip: arbitrary ids, widths and value bit patterns go
// through appendBlock → decodeBlock bit-exactly, no proper prefix of a
// block passes checkBlock, and any bytes checkBlock accepts decode to a
// batch that re-encodes to exactly those bytes.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 240, 63}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 36), uint8(2))
	f.Add([]byte{7, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3))
	f.Add([]byte{3, 0, 5, 0, 1, 0, 0, 0, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, w uint8) {
		width := int(w%8) + 1
		rowBytes := 4 + 8*width
		b := NewMessageBatch(width)
		row := make([]float64, width)
		for rest := raw; len(rest) >= rowBytes && b.Len() < 1024; rest = rest[rowBytes:] {
			for j := range row {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest[4+8*j:]))
			}
			b.AppendRow(graph.VertexID(binary.LittleEndian.Uint32(rest)), row)
		}
		if b.Len() > 0 {
			blk, err := appendBlock(nil, 3, 5, b)
			if err != nil {
				t.Fatal(err)
			}
			size, err := checkBlock(blk, width)
			if err != nil || size != len(blk) || size != blockBytes(b.Len(), width) {
				t.Fatalf("encoded block of %d bytes checks as %d, %v", len(blk), size, err)
			}
			got := decodeBlock(blk, width)
			if err := sameRows(got, b); err != nil {
				t.Fatal(err)
			}
			RecycleBatch(got)
			for cut := 0; cut < len(blk); cut++ {
				if _, err := checkBlock(blk[:cut], width); err == nil {
					t.Fatalf("block cut to %d/%d bytes passed the check", cut, len(blk))
				}
			}
		}

		size, err := checkBlock(raw, width)
		if err != nil {
			return
		}
		got := decodeBlock(raw[:size], width)
		src, dst := int(binary.LittleEndian.Uint16(raw)), int(binary.LittleEndian.Uint16(raw[2:]))
		again, err := appendBlock(nil, src, dst, got)
		if err != nil || !bytes.Equal(again, raw[:size]) {
			t.Fatalf("accepted block of %d bytes re-encodes to %d bytes (%v)", size, len(again), err)
		}
		RecycleBatch(got)
	})
}

// BenchmarkBlockCodec is the codec's layer benchmark: appendBlock plus
// decodeBlock of one 2048-row block, reported per row, for a noisy and an
// integral scalar payload and a noisy width-8 one.
func BenchmarkBlockCodec(b *testing.B) {
	const rows = 2048
	for _, tc := range []struct {
		name  string
		width int
		value func(rng *rand.Rand, i int) float64
	}{
		{"noisy/w1", 1, func(rng *rand.Rand, _ int) float64 { return rng.Float64() }},
		{"integral/w1", 1, func(_ *rand.Rand, i int) float64 { return float64(i % 64) }},
		{"noisy/w8", 8, func(rng *rand.Rand, _ int) float64 { return rng.Float64() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			batch := NewMessageBatch(tc.width)
			row := make([]float64, tc.width)
			for i := 0; i < rows; i++ {
				for j := range row {
					row[j] = tc.value(rng, i)
				}
				batch.AppendRow(graph.VertexID(3*i), row)
			}
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendBlock(buf[:0], 0, 1, batch); err != nil {
					b.Fatal(err)
				}
				RecycleBatch(decodeBlock(buf, tc.width))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(float64(len(buf))/rows, "B/row")
		})
	}
}
