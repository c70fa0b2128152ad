package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// specialFloats are the bit patterns a lossy codec would not survive:
// quiet and signalling NaNs with payloads, negative zero, both infinities,
// the smallest and largest subnormals.
var specialFloats = []float64{
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF4DEADBEEF0001),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000FFFFFFFFFFFFF), math.MaxFloat64,
}

func TestColumnsRoundTripBitExact(t *testing.T) {
	ids := []uint32{0, 1, math.MaxUint32, 0xDEADBEEF}
	degs := []int32{0, -1, math.MinInt32, math.MaxInt32}
	buf := AppendU32s([]byte("hdr"), ids)
	buf = AppendU32s(buf, degs)
	buf = AppendF64s(buf, specialFloats)

	rest := buf[3:]
	gotIDs, rest, err := TakeU32s[uint32](rest, len(ids))
	if err != nil || !slices.Equal(gotIDs, ids) {
		t.Fatalf("u32 column: %v, %v", gotIDs, err)
	}
	gotDegs, rest, err := TakeU32s[int32](rest, len(degs))
	if err != nil || !slices.Equal(gotDegs, degs) {
		t.Fatalf("i32 column: %v, %v", gotDegs, err)
	}
	gotVals, rest, err := TakeF64s(rest, len(specialFloats))
	if err != nil || len(rest) != 0 {
		t.Fatalf("f64 column: %d bytes left, %v", len(rest), err)
	}
	for i, v := range specialFloats {
		if math.Float64bits(gotVals[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(gotVals[i]), math.Float64bits(v))
		}
	}
}

// TestTakeChecksLengthBeforeAllocating: a claimed length beyond the bytes
// present — negative and overflowing counts included — is an error; an
// empty column takes nothing.
func TestTakeChecksLengthBeforeAllocating(t *testing.T) {
	src := make([]byte, 16)
	for _, n := range []int{-1, 3, 5, math.MaxInt / 4, math.MaxInt} {
		if _, _, err := TakeF64s(src, n); err == nil {
			t.Fatalf("TakeF64s(16 bytes, %d) accepted", n)
		}
	}
	for _, n := range []int{-1, 5, math.MaxInt} {
		if _, _, err := TakeU32s[uint32](src, n); err == nil {
			t.Fatalf("TakeU32s(16 bytes, %d) accepted", n)
		}
	}
	if vals, rest, err := TakeU32s[int32](src, 0); len(vals) != 0 || len(rest) != 16 || err != nil {
		t.Fatalf("empty column: %v, %d bytes left, %v", vals, len(rest), err)
	}
}

func TestReadBounded(t *testing.T) {
	data := make([]byte, 3*readBoundedStep+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, readBoundedStep - 1, readBoundedStep, readBoundedStep + 1, len(data)} {
		// One byte per Read: growth must not depend on how reads chunk.
		var r io.Reader = bytes.NewReader(data)
		if n < 1<<12 {
			r = iotest.OneByteReader(r)
		}
		got, err := ReadBounded(r, n)
		if err != nil || !bytes.Equal(got, data[:n]) {
			t.Fatalf("ReadBounded(%d): %d bytes, %v", n, len(got), err)
		}
	}
	if _, err := ReadBounded(bytes.NewReader(data[:100]), 101); err != io.ErrUnexpectedEOF {
		t.Fatalf("short stream: %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if _, err := ReadBounded(bytes.NewReader(nil), 5); err != io.EOF {
		t.Fatalf("empty stream: %v, want %v", err, io.EOF)
	}
}

func TestBlockIORoundTrip(t *testing.T) {
	// Exercise multi-block paths: 3 bytes/element never divides 64 KiB
	// evenly and 30000 elements span two blocks.
	const n, elem = 30000, 3
	f := Format{Name: "EBVT", Version: 1, Words: 1}
	src := make([]byte, n*elem)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := f.WriteBlocks(&buf, n, elem, func(dst []byte, i int) {
		copy(dst, src[i*elem:(i+1)*elem])
	}, n); err != nil {
		t.Fatal(err)
	}
	if want := f.headerBytes() + n*elem + 4; buf.Len() != want {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), want)
	}
	file := bytes.Clone(buf.Bytes())
	if words, body, err := f.Open(file); err != nil || words[0] != n || !bytes.Equal(body, src) {
		t.Fatalf("Open: words %v, %v", words, err)
	}
	read := func(file []byte) ([]byte, error) {
		r, words, err := f.NewReader(bytes.NewReader(file))
		if err != nil {
			return nil, err
		}
		got := make([]byte, 0, n*elem)
		err = r.ReadBlocks(words[0], elem, func(s []byte) { got = append(got, s...) })
		return got, err
	}
	if got, err := read(file); err != nil || !bytes.Equal(src, got) {
		t.Fatalf("block round trip: %v", err)
	}
	// Truncated input surfaces the read error, a flipped bit the checksum.
	if _, err := read(file[:len(file)/2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read: %v", err)
	}
	file[len(file)/2] ^= 1
	if _, err := read(file); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped bit: %v", err)
	}
	// n == 0 writes the header and the checksum only.
	buf.Reset()
	if err := f.WriteBlocks(&buf, 0, 8, func(dst []byte, i int) {
		binary.LittleEndian.PutUint64(dst, 1)
	}, 0); err != nil || buf.Len() != f.headerBytes()+4 {
		t.Fatalf("empty write: err %v len %d", err, buf.Len())
	}
}
