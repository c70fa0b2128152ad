package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"ebv/internal/graph"
)

// v4 frame flag bits (the header's flags byte).
const (
	v4FlagDeltaIDs  = 1 << 0 // ID column is zigzag-delta uvarints
	v4FlagPackedVal = 1 << 1 // value column is the per-value packed codec
)

// Per-value descriptors of the packed value codec. 0..8 encode the XOR
// significant-byte count; valModeIntDelta marks the integral fast path.
const (
	valModeMaxXOR   = 8
	valModeIntDelta = 9
)

// zigzag folds signed deltas into unsigned varint space (small negatives
// stay short).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the encoded size of u without materializing it.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// appendDeltaIDs encodes the ID column as zigzag-varint deltas from the
// previous id (first delta from 0). The engine's senders emit ascending
// global IDs, so the common row costs one byte instead of four; a
// non-ascending column still round-trips exactly, it just compresses
// less.
func appendDeltaIDs(dst []byte, ids []graph.VertexID) []byte {
	prev := int64(0)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, zigzag(int64(id)-prev))
		prev = int64(id)
	}
	return dst
}

// decodeDeltaIDs decodes exactly len(ids) deltas from src, which must be
// consumed completely — a truncated or padded column is a loud error, not
// a short read.
func decodeDeltaIDs(src []byte, ids []graph.VertexID) error {
	prev := int64(0)
	for i := range ids {
		u, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("id column truncated at row %d", i)
		}
		src = src[n:]
		v := prev + unzigzag(u)
		if v < 0 || v > math.MaxUint32 {
			return fmt.Errorf("id column row %d decodes to %d, outside the vertex-id space", i, v)
		}
		ids[i] = graph.VertexID(v)
		prev = v
	}
	if len(src) != 0 {
		return fmt.Errorf("id column has %d trailing bytes", len(src))
	}
	return nil
}

// appendPackedVals encodes the value column one value at a time, each
// prefixed by a descriptor byte choosing the cheaper of two deltas
// against the previous value:
//
//   - 0..8: XOR against the previous value's bits, low zero bytes
//     stripped — d significant bytes follow (0 bytes for an exact
//     repeat, the replica-sync apps' dominant case).
//   - 9: integral fast path — the value and the previous integral value
//     are both exact int64s, and a zigzag-varint of their difference
//     follows (label/distance/feature-count payloads: 1–2 bytes).
//
// Both sides update the previous-bits state on every value and the
// previous-integer state only on exactly-integral values, so the decoder
// reconstructs the encoder's choices without any side channel.
func appendPackedVals(dst []byte, vals []float64) []byte {
	var prevBits uint64
	var prevInt int64
	for _, v := range vals {
		b := math.Float64bits(v)
		x := b ^ prevBits
		sigBytes := 8 - bits.TrailingZeros64(x)/8
		if x == 0 {
			sigBytes = 0
		}
		iv := int64(v)
		integral := math.Float64bits(float64(iv)) == b
		if integral && uvarintLen(zigzag(iv-prevInt)) < sigBytes {
			dst = append(dst, valModeIntDelta)
			dst = binary.AppendUvarint(dst, zigzag(iv-prevInt))
		} else {
			dst = append(dst, byte(sigBytes))
			// The significand's low sigBytes bytes, little endian.
			dst = binary.LittleEndian.AppendUint64(dst, x>>(8*(8-sigBytes)))[:len(dst)+sigBytes]
		}
		prevBits = b
		if integral {
			prevInt = iv
		}
	}
	return dst
}

// decodePackedVals decodes exactly len(vals) packed values from src,
// which must be consumed completely.
func decodePackedVals(src []byte, vals []float64) error {
	var prevBits uint64
	var prevInt int64
	for i := range vals {
		if len(src) == 0 {
			return fmt.Errorf("value column truncated at row %d", i)
		}
		mode := src[0]
		src = src[1:]
		var b uint64
		switch {
		case mode <= valModeMaxXOR:
			d := int(mode)
			if len(src) < d {
				return fmt.Errorf("value column truncated inside row %d", i)
			}
			var sig uint64
			for j := 0; j < d; j++ {
				sig |= uint64(src[j]) << (8 * j)
			}
			src = src[d:]
			if d > 0 && sig&0xff == 0 {
				// The encoder strips trailing zero bytes, so a valid
				// significand's low byte is nonzero: reject the
				// non-canonical form instead of aliasing another frame.
				return fmt.Errorf("value column row %d is non-canonical (%d-byte delta with zero low byte)", i, d)
			}
			b = prevBits
			if d > 0 {
				b = sig<<(8*(8-d)) ^ prevBits
			}
		case mode == valModeIntDelta:
			u, n := binary.Uvarint(src)
			if n <= 0 {
				return fmt.Errorf("value column truncated inside row %d", i)
			}
			src = src[n:]
			iv := prevInt + unzigzag(u)
			f := float64(iv)
			if int64(f) != iv {
				return fmt.Errorf("value column row %d integral delta overflows float64", i)
			}
			b = math.Float64bits(f)
		default:
			return fmt.Errorf("value column row %d has invalid descriptor %d", i, mode)
		}
		v := math.Float64frombits(b)
		vals[i] = v
		prevBits = b
		if iv := int64(v); math.Float64bits(float64(iv)) == b {
			prevInt = iv
		}
	}
	if len(src) != 0 {
		return fmt.Errorf("value column has %d trailing bytes", len(src))
	}
	return nil
}
