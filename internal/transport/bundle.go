package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"ebv/internal/frame"
)

// The EBV6 bundle: the one frame a MeshNode writes. A bundle carries the
// blocks one worker hands to another in one round of a superstep's
// exchange (see muxJob.Exchange), each block one source's batch for one
// destination. Layout, little endian:
//
//	u32 magic | u32 job | u32 step | u8 round | u8 flags | u16 blocks |
//	u32 width | u32 bodyBytes | u32 crc | blocks × block
//
//	block: u16 src | u16 dst | u32 count | count × u32 id |
//	       count·width × f64 value
//
// Both columns are fixed width (the frame column helpers), so a block's
// size follows from its count and the bundle's width. The CRC-32C covers
// every header byte after the magic plus the body, and is checked before
// any block is parsed. Empty batches send no block.
const (
	bundleMagic       = 0x45425636 // "EBV6"
	bundleHeaderBytes = 28
	blockHeaderBytes  = 8

	// Bundle flags: the OR of the active votes and the AND of the small
	// bits the sender holds so far, and which schedule the bundle is part of.
	bundleActive = 1 << 0
	bundleSmall  = 1 << 1 // every block its originators encoded was ≤ smallBlockBytes
	bundleBruck  = 1 << 2 // radix-2 round; clear for the direct exchange

	// maxWireWorkers bounds k: a block names its src and dst in a u16.
	maxWireWorkers = 1 << 16

	// What a block header may claim; the product bound caps a value column
	// at 2 GiB. The writer enforces the same bounds, so an oversized batch
	// fails with a clear local error, not a corrupt-bundle error.
	maxWireWidth    = MaxValueWidth
	maxWireMessages = 1 << 28
	maxWireValues   = 1 << 28
)

// wireBlock is one encoded block, header included: what a relay forwards
// verbatim.
type wireBlock struct {
	src, dst int
	raw      []byte
}

// blockBytes is the size of a block of count rows of the given width.
func blockBytes(count, width int) int { return blockHeaderBytes + count*(4+8*width) }

// blockCount is the row count in the header of the block raw.
func blockCount(raw []byte) int { return int(binary.LittleEndian.Uint32(raw[4:8])) }

// appendBlock encodes the non-empty batch b, sent from src to dst, as one
// block appended to buf.
func appendBlock(buf []byte, src, dst int, b *MessageBatch) ([]byte, error) {
	count, width := b.Len(), b.Width
	if count > maxWireMessages || count*width > maxWireValues {
		return buf, fmt.Errorf("batch of %d messages × width %d exceeds the wire cap (%d messages, %d values)",
			count, width, maxWireMessages, maxWireValues)
	}
	buf = slices.Grow(buf, blockBytes(count, width))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(src))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dst))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	buf = frame.AppendU32s(buf, b.IDs)
	return frame.AppendF64s(buf, b.Vals), nil
}

// writeBundle writes one bundle of blocks to bw and flushes it, returning
// its wire size.
func writeBundle(bw *bufio.Writer, job uint32, step, round int, flags byte, width int, blocks []wireBlock) (int, error) {
	body := 0
	for _, b := range blocks {
		body += len(b.raw)
	}
	if uint64(body) > math.MaxUint32 {
		return 0, fmt.Errorf("bundle of %d bytes exceeds the wire cap", body)
	}
	var h [bundleHeaderBytes]byte
	binary.LittleEndian.PutUint32(h[0:4], bundleMagic)
	binary.LittleEndian.PutUint32(h[4:8], job)
	binary.LittleEndian.PutUint32(h[8:12], uint32(step))
	h[12] = byte(round)
	h[13] = flags
	binary.LittleEndian.PutUint16(h[14:16], uint16(len(blocks)))
	binary.LittleEndian.PutUint32(h[16:20], uint32(width))
	binary.LittleEndian.PutUint32(h[20:24], uint32(body))
	crc := frame.Checksum(0, h[4:24])
	for _, b := range blocks {
		crc = frame.Checksum(crc, b.raw)
	}
	binary.LittleEndian.PutUint32(h[24:28], crc)
	if _, err := bw.Write(h[:]); err != nil {
		return 0, err
	}
	for _, b := range blocks {
		if _, err := bw.Write(b.raw); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return bundleHeaderBytes + body, nil
}

// bundle is one checked bundle; its blocks alias the reader's scratch and
// are valid until the next read.
type bundle struct {
	job         uint32
	step, round int
	flags       byte
	width       int
	blocks      []wireBlock
}

// bundleScratch is a demux goroutine's reusable read scratch.
type bundleScratch struct {
	body   []byte
	blocks []wireBlock
}

// bruckRounds is the radix-2 schedule's round count at k workers, ⌈log₂k⌉.
func bruckRounds(k int) int { return bits.Len(uint(k - 1)) }

// routes reports whether the block (src, dst) may travel over the edge
// from → to in the given round. The direct exchange moves each block
// straight to its destination. A radix-2 round moves a block 2^round ahead
// when that bit is set in its offset (dst − src) mod k, so the block must
// already have covered exactly the offset's lower bits.
func routes(k, from, to, src, dst, round int, bruck bool) bool {
	if !bruck {
		return src == from && dst == to
	}
	hop := 1 << round
	off := (dst - src + k) % k
	return off&hop != 0 && (from-src+k)%k == off&(hop-1)
}

// readBundle reads one bundle that worker from sent to worker to of a
// k-worker mesh. Everything is checked before anything is decoded: the
// header's shape against the wire caps, then the CRC over header and body
// (so any single bit flip fails here), then every block header — its
// columns inside the body, src and dst in [0,k), its route through this
// round, and strictly ascending (dst, src) order, so a block cannot appear
// twice. A clean end of stream before the first byte is io.EOF; any later
// truncation is io.ErrUnexpectedEOF.
func readBundle(br *bufio.Reader, k, from, to int, s *bundleScratch) (bundle, error) {
	var h [bundleHeaderBytes]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return bundle{}, err
	}
	if magic := binary.LittleEndian.Uint32(h[0:4]); magic != bundleMagic {
		return bundle{}, fmt.Errorf(
			"bad bundle magic %#x, want %#x (peer speaking another wire version?)", magic, bundleMagic)
	}
	b := bundle{
		job:   binary.LittleEndian.Uint32(h[4:8]),
		step:  int(binary.LittleEndian.Uint32(h[8:12])),
		round: int(h[12]),
		flags: h[13],
		width: int(binary.LittleEndian.Uint32(h[16:20])),
	}
	nblocks := int(binary.LittleEndian.Uint16(h[14:16]))
	bodyBytes := uint64(binary.LittleEndian.Uint32(h[20:24])) // an int once bounded below
	bruck := b.flags&bundleBruck != 0
	switch {
	case b.flags&^(bundleActive|bundleSmall|bundleBruck) != 0:
		return bundle{}, fmt.Errorf("bundle has unknown flags %#x", b.flags)
	case b.width < 1 || b.width > maxWireWidth:
		return bundle{}, fmt.Errorf("bundle width %d out of range [1,%d]", b.width, maxWireWidth)
	case !bruck && b.round != 0, bruck && b.round >= bruckRounds(k):
		return bundle{}, fmt.Errorf("bundle round %d out of range at k = %d", b.round, k)
	case bruck && (from+1<<b.round)%k != to:
		return bundle{}, fmt.Errorf("round %d bundle from worker %d cannot reach worker %d", b.round, from, to)
	case nblocks >= k || uint64(nblocks*blockHeaderBytes) > bodyBytes || bodyBytes > math.MaxInt:
		return bundle{}, fmt.Errorf("bundle claims %d blocks in %d body bytes at k = %d", nblocks, bodyBytes, k)
	}
	var err error
	if n := int(bodyBytes); n <= cap(s.body) {
		s.body = s.body[:n]
		_, err = io.ReadFull(br, s.body)
	} else {
		// Grown with what arrives, never with what the header claims.
		s.body, err = frame.ReadBounded(br, int(bodyBytes))
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body: not a clean end
		}
		return bundle{}, err
	}
	if crc, want := frame.Checksum(frame.Checksum(0, h[4:24]), s.body), binary.LittleEndian.Uint32(h[24:28]); crc != want {
		return bundle{}, fmt.Errorf("bundle CRC mismatch (want %#x, computed %#x): corrupted bundle", want, crc)
	}

	s.blocks = s.blocks[:0]
	rest := s.body
	for i := 0; i < nblocks; i++ {
		size, err := checkBlock(rest, b.width)
		if err != nil {
			return bundle{}, fmt.Errorf("bundle block %d: %w", i, err)
		}
		blk := wireBlock{
			src: int(binary.LittleEndian.Uint16(rest[0:2])),
			dst: int(binary.LittleEndian.Uint16(rest[2:4])),
			raw: rest[:size],
		}
		if blk.src >= k || blk.dst >= k {
			return bundle{}, fmt.Errorf("bundle block %d runs %d → %d, outside [0,%d)", i, blk.src, blk.dst, k)
		}
		if !routes(k, from, to, blk.src, blk.dst, b.round, bruck) {
			return bundle{}, fmt.Errorf("bundle block %d (%d → %d) does not route through round %d from worker %d to %d",
				i, blk.src, blk.dst, b.round, from, to)
		}
		if i > 0 {
			if prev := s.blocks[i-1]; blk.dst < prev.dst || blk.dst == prev.dst && blk.src <= prev.src {
				return bundle{}, fmt.Errorf("bundle block %d (%d → %d) is out of order", i, blk.src, blk.dst)
			}
		}
		s.blocks = append(s.blocks, blk)
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return bundle{}, fmt.Errorf("bundle has %d bytes after its %d blocks", len(rest), nblocks)
	}
	b.blocks = s.blocks
	return b, nil
}

// checkBlock validates the block header at the front of body for a bundle
// of the given width and returns the block's size.
func checkBlock(body []byte, width int) (int, error) {
	if len(body) < blockHeaderBytes {
		return 0, fmt.Errorf("header needs %d bytes, %d left", blockHeaderBytes, len(body))
	}
	// Counted in 64 bits: a 32-bit int would wrap the product.
	count := uint64(binary.LittleEndian.Uint32(body[4:8]))
	if count < 1 || count > maxWireMessages || count*uint64(width) > maxWireValues {
		return 0, fmt.Errorf("%d messages × width %d is empty or exceeds the wire cap", count, width)
	}
	size := blockHeaderBytes + count*(4+8*uint64(width))
	if size > uint64(len(body)) {
		return 0, fmt.Errorf("%d messages × width %d need %d bytes, %d left in the bundle", count, width, size, len(body))
	}
	return int(size), nil
}

// decodeBlock copies the columns of a block checkBlock accepted into a
// pooled batch the caller owns.
//
//ebv:owns the demux delivers it through Exchange, whose caller recycles it
func decodeBlock(raw []byte, width int) *MessageBatch {
	count := blockCount(raw)
	b := GetBatch(width)
	b.IDs = slices.Grow(b.IDs, count)[:count]
	b.Vals = slices.Grow(b.Vals, count*width)[:count*width]
	frame.DecodeU32s(b.IDs, raw[blockHeaderBytes:])
	frame.DecodeF64s(b.Vals, raw[blockHeaderBytes+4*count:])
	return b
}
