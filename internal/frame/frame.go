// Package frame is the one sealed layout behind every blob and file
// format of the module (DESIGN.md §10, "Frames"):
//
//	u32 magic | u32 version | n × u32 header words | body | u32 crc
//
// little-endian, crc the CRC-32C of every byte before it. A Format names
// the magic, the one version this build reads and n; the meaning of the
// words and the body's layout belong to the format's package. Byte slices
// go through Begin, Seal and Open; streams through Reader and WriteBlocks,
// which checksum bytes as they pass. Magic and version are checked first,
// so a foreign or stale frame is rejected by name, not by its checksum.
// Errors carry no package prefix.
package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// table is the module's one CRC-32C table (the v4 data frames, which keep
// their own layout, checksum through it too).
var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns crc extended by the CRC-32C of p; start from 0.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, table, p) }

// Format is one framed format. Its magic is Name's four bytes read
// big-endian ("EBVS" is 0x45425653); Words header words follow Version.
type Format struct {
	Name    string
	Version uint32
	Words   int
}

func (f Format) magic() uint32    { return binary.BigEndian.Uint32([]byte(f.Name)) }
func (f Format) headerBytes() int { return 4 * (2 + f.Words) }

// Begin starts a frame of f — magic, version and the words, each
// truncated to 32 bits — in a buffer with room for bodyBytes more bytes
// and the checksum. The caller appends the body and calls Seal.
func (f Format) Begin(bodyBytes int, words ...int) []byte {
	buf := make([]byte, 0, f.headerBytes()+bodyBytes+4)
	buf = binary.LittleEndian.AppendUint32(buf, f.magic())
	buf = binary.LittleEndian.AppendUint32(buf, f.Version)
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
	}
	return buf
}

// Seal appends the checksum of everything in buf.
func Seal(buf []byte) []byte { return binary.LittleEndian.AppendUint32(buf, Checksum(0, buf)) }

// Open checks that data is one whole frame of f and returns its header
// words, each in [0, 2³²), and its body, which aliases data. Whether the
// body's length agrees with the words is the caller's check.
func (f Format) Open(data []byte) ([]int, []byte, error) {
	r, words, err := f.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	if len(data) < f.headerBytes()+4 {
		return nil, nil, fmt.Errorf("%s frame truncated at %d bytes", f.Name, len(data))
	}
	body := data[f.headerBytes() : len(data)-4]
	r.crc = Checksum(r.crc, body)
	if err := r.check(data[len(data)-4:]); err != nil {
		return nil, nil, err
	}
	return words, body, nil
}

// Reader reads one frame from a stream: NewReader consumes the header,
// Read passes body bytes through the checksum, and Verify consumes the
// checksum. It never reads past the frame, so frames can follow one
// another on a connection.
type Reader struct {
	name string
	r    io.Reader
	crc  uint32
}

// NewReader reads and checks the header of one f frame from r and returns
// its words. The magic is checked as soon as its four bytes arrive; a
// stream that ends before its first byte returns io.EOF unwrapped.
func (f Format) NewReader(r io.Reader) (*Reader, []int, error) {
	head := make([]byte, f.headerBytes())
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return nil, nil, err
	}
	if m := binary.LittleEndian.Uint32(head); m != f.magic() {
		return nil, nil, fmt.Errorf("not an %s frame (magic %#x)", f.Name, m)
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return nil, nil, fmt.Errorf("%s header: %w", f.Name, unexpected(err))
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != f.Version {
		return nil, nil, fmt.Errorf("%s version %d, this build reads %d", f.Name, v, f.Version)
	}
	words := make([]int, f.Words)
	for i := range words {
		words[i] = int(binary.LittleEndian.Uint32(head[8+4*i:]))
	}
	return &Reader{name: f.Name, r: r, crc: Checksum(0, head)}, words, nil
}

func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.crc = Checksum(r.crc, p[:n])
	return n, err
}

// Verify reads the checksum and compares it with that of every byte read
// so far; call it once the whole body has been read.
func (r *Reader) Verify() error {
	var sum [4]byte
	if _, err := io.ReadFull(r.r, sum[:]); err != nil {
		return fmt.Errorf("%s checksum: %w", r.name, unexpected(err))
	}
	return r.check(sum[:])
}

func (r *Reader) check(sum []byte) error {
	if got := binary.LittleEndian.Uint32(sum); got != r.crc {
		return fmt.Errorf("%s checksum mismatch: got %#x, computed %#x", r.name, got, r.crc)
	}
	return nil
}

// blockBytes bounds the staging buffer of WriteBlocks and ReadBlocks.
const blockBytes = 1 << 16

// WriteBlocks streams a whole frame of f with the given header words and a
// body of n elements of size bytes each to w, staged through one buffer of
// at most 64 KiB and checksummed as they pass: put(dst, i) encodes element
// i into dst (len(dst) == size).
func (f Format) WriteBlocks(w io.Writer, n, size int, put func(dst []byte, i int), words ...int) error {
	var crc uint32
	write := func(p []byte) error {
		crc = Checksum(crc, p)
		_, err := w.Write(p)
		return err
	}
	if err := write(f.Begin(0, words...)); err != nil {
		return err
	}
	buf := make([]byte, min(n, blockBytes/size)*size)
	for start := 0; start < n; start += len(buf) / size {
		cnt := min(len(buf)/size, n-start)
		for i := range cnt {
			put(buf[i*size:(i+1)*size], start+i)
		}
		if err := write(buf[:cnt*size]); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc))
	return err
}

// ReadBlocks reads the rest of the frame — a body of n elements of size
// bytes each, then the checksum — through one staging buffer of at most
// 64 KiB, handing each element to get in order, so what it holds never
// depends on what n claims.
func (r *Reader) ReadBlocks(n, size int, get func(elem []byte)) error {
	buf := make([]byte, max(0, min(n, blockBytes/size))*size)
	for n > 0 {
		cnt := min(len(buf)/size, n)
		if _, err := io.ReadFull(r, buf[:cnt*size]); err != nil {
			return fmt.Errorf("%s body: %w", r.name, unexpected(err))
		}
		for i := 0; i < cnt*size; i += size {
			get(buf[i : i+size])
		}
		n -= cnt
	}
	return r.Verify()
}

// unexpected maps io.EOF to io.ErrUnexpectedEOF: inside a frame, a stream
// that ends is a truncation.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
