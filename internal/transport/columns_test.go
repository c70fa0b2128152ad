package transport

import (
	"bytes"
	"io"
	"math"
	"slices"
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
