package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Bulk little-endian column codecs: the one set of helpers behind every
// format that ships whole numeric slices verbatim — the shard codec
// (bsp.WriteSubgraph), the cluster's done frame and checkpoint files, and
// the raw value column of a v4 job frame. Append* grow dst exactly once;
// Take* check the claimed length against the bytes actually present
// before allocating, so a corrupt count can never size an allocation.
// Errors carry no package prefix: callers attribute them.

// AppendU32s appends vals to dst as 32-bit words.
func AppendU32s[T ~uint32 | ~int32](dst []byte, vals []T) []byte {
	dst = slices.Grow(dst, 4*len(vals))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// AppendF64s appends vals to dst as IEEE-754 bit patterns (every NaN
// payload, signed zero and subnormal survives).
func AppendF64s(dst []byte, vals []float64) []byte {
	dst = slices.Grow(dst, 8*len(vals))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeF64s fills dst from the first 8·len(dst) bytes of src, which the
// caller has already checked are there.
func DecodeF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// takeColumn splits an n-element column of the given element size off the
// front of src.
func takeColumn(src []byte, n, elemSize int) (col, rest []byte, err error) {
	if n < 0 || n > len(src)/elemSize {
		return nil, nil, fmt.Errorf("column of %d × %d bytes, %d bytes left", n, elemSize, len(src))
	}
	return src[:n*elemSize], src[n*elemSize:], nil
}

// TakeU32s decodes an n-word column off the front of src into one fresh
// slice and returns the bytes after it.
func TakeU32s[T ~uint32 | ~int32](src []byte, n int) ([]T, []byte, error) {
	col, rest, err := takeColumn(src, n, 4)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]T, n)
	for i := range vals {
		vals[i] = T(binary.LittleEndian.Uint32(col[4*i:]))
	}
	return vals, rest, nil
}

// TakeF64s is TakeU32s for a float64 column.
func TakeF64s(src []byte, n int) ([]float64, []byte, error) {
	col, rest, err := takeColumn(src, n, 8)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, n)
	DecodeF64s(vals, col)
	return vals, rest, nil
}

// readBoundedStep caps ReadBounded's first allocation.
const readBoundedStep = 1 << 20

// ReadBounded reads exactly n bytes from r into a buffer that grows with
// what has arrived — first min(n, 1 MiB), then doubling — so a length
// field is never trusted with more memory than the peer has actually
// delivered. A short stream is io.ErrUnexpectedEOF (io.EOF only when n > 0
// and nothing arrived).
func ReadBounded(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readBoundedStep))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		end := min(n, cap(buf))
		m, err := io.ReadFull(r, buf[len(buf):end])
		buf = buf[:len(buf)+m]
		if err != nil {
			if len(buf) > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}
