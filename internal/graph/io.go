package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"ebv/internal/frame"
)

// The text format is the SNAP-style edge list the paper's datasets ship in:
// one "src dst" pair per line, '#'-prefixed comment lines ignored. The
// binary format is an EBVG frame (package frame; version 1 had no
// checksum) with header words flags (bit 0: mirrored), |V| and |E| and a
// body of |E| (u32 src, u32 dst) pairs; it exists because re-parsing text
// dominates experiment start-up for large synthetic graphs.
//
// Both loaders are built for throughput: the text parser splits the input
// into ~MB chunks on line boundaries and parses the chunks on parallel
// goroutines with an allocation-free byte-level scanner, and the binary
// reader/writer move edges in 64 KiB blocks instead of 8-byte units.
var binaryFrame = frame.Format{Name: "EBVG", Version: 2, Words: 3}

const (
	flagMirrored = 0x1

	// maxLoadVertexID caps the vertex id space of loaded files: the dense
	// per-vertex arrays cost ~8 bytes per id, so an adversarial edge list
	// containing "4294967295 0" would otherwise allocate tens of GiB.
	// 2^28 (268M ids ≈ 2 GiB of degree arrays) covers every graph in the
	// paper's Table I with headroom.
	maxLoadVertexID = 1 << 28

	// edgeListChunkSize is the target byte size of one parallel parse unit.
	// Big enough to amortize goroutine dispatch, small enough that even a
	// modest file fans out across every core.
	edgeListChunkSize = 1 << 20

	// maxEdgeListLine caps a single line's length (the seed's
	// bufio.Scanner buffer bound): a newline-free multi-GB input — a
	// binary file passed to the text loader, say — must fail fast, not
	// get buffered whole while the window doubles.
	maxEdgeListLine = 1 << 20

	// maxParseWorkers clamps the parse fan-out: parsing saturates memory
	// bandwidth long before this, and the window buffer scales with it
	// (a caller passing Parallelism(1<<20) must not trigger a TiB-sized
	// allocation).
	maxParseWorkers = 64
)

// ReadEdgeList parses a SNAP-style text edge list using all available CPUs.
// If undirected is true the edges are mirrored per §III-C. The vertex count
// is 1 + the maximum vertex id seen (the SNAP convention).
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	return ReadEdgeListParallel(r, undirected, 0)
}

// ReadEdgeListParallel is ReadEdgeList with an explicit parallelism degree:
// the input streams through line-aligned windows of parallelism chunks,
// and each window's chunks are parsed concurrently by at most parallelism
// goroutines (<= 0 selects GOMAXPROCS, 1 parses sequentially) while one
// more goroutine reads the next window. At most two windows of text
// (~parallelism MB each) are resident; the parsed chunks (8 bytes of edge
// capacity per line) are kept until the input ends and then copied once
// into the exactly sized edge slice, so peak memory is the two windows,
// the chunks and that slice. The resulting graph is
// identical to a sequential parse — chunk results concatenate in input
// order, and error line numbers are global. An error returns once the
// read in flight, at most one window, completes.
func ReadEdgeListParallel(r io.Reader, undirected bool, parallelism int) (*Graph, error) {
	return readEdgeListStream(r, undirected, parallelism, edgeListChunkSize)
}

// readEdgeListChunked parses an in-memory edge list; it exists so tests
// and the fuzzer can force tiny windows/chunks over small inputs.
func readEdgeListChunked(data []byte, undirected bool, parallelism, chunkSize int) (*Graph, error) {
	return readEdgeListStream(bytes.NewReader(data), undirected, parallelism, chunkSize)
}

// readEdgeListStream is the windowed core of the parallel parser.
func readEdgeListStream(r io.Reader, undirected bool, parallelism, chunkSize int) (*Graph, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > maxParseWorkers {
		parallelism = maxParseWorkers
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	windows := make(chan textWindow)
	free := make(chan []byte, windowBuffers) // never blocks: one slot per buffer
	stop := make(chan struct{})
	go readWindows(r, chunkSize, parallelism*chunkSize, windows, free, stop)
	defer func() {
		close(stop)
		for range windows { // returns once readWindows has
		}
	}()

	var (
		chunks   []edgeChunk
		lineBase int // lines consumed by earlier chunks
	)
	for w := range windows {
		if errors.Is(w.err, errLineTooLong) {
			// The window holding the long line starts at a line boundary.
			return nil, fmt.Errorf("graph: line %d: %w", lineBase+1, errLineTooLong)
		}
		if w.err != nil {
			return nil, w.err
		}
		results := parseChunksParallel(w.text, parallelism, chunkSize)
		free <- w.buf
		for i := range results {
			if results[i].err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineBase+results[i].errLine, results[i].err)
			}
			lineBase += results[i].lines
		}
		chunks = append(chunks, results...)
	}

	numE, maxID := 0, int64(-1)
	for _, c := range chunks {
		numE += len(c.edges)
		maxID = max(maxID, c.maxID)
	}
	edges := make([]Edge, 0, numE)
	for _, c := range chunks {
		edges = append(edges, c.edges...)
	}
	n := int(maxID + 1)
	if undirected {
		return NewUndirected(n, edges)
	}
	return New(n, edges)
}

// windowBuffers is how many window buffers readWindows keeps in flight:
// the one being parsed and the one being filled.
const windowBuffers = 2

// textWindow is one line-aligned window of edge-list text, or the error
// that ended the input.
type textWindow struct {
	buf  []byte // the buffer holding text, handed back on free once parsed
	text []byte // whole lines, except that the input's last line may lack '\n'
	err  error  // errLineTooLong (the caller knows the line number) or a read error
}

// readWindows cuts r into line-aligned windows and sends them on out in
// input order until the input ends, a read fails or stop closes; it closes
// out when it returns. The first window is at most first bytes, so a small
// input never pays for a full fan-out buffer, and later ones size bytes;
// a window grows while one line spans it, up to maxEdgeListLine. Window
// buffers circulate through free, windowBuffers of them at most. The
// partial line after a window's last newline is copied out before the
// window is sent, so a buffer handed back holds nothing readWindows
// still needs.
func readWindows(r io.Reader, first, size int, out chan<- textWindow, free <-chan []byte, stop <-chan struct{}) {
	defer close(out)
	send := func(w textWindow) bool {
		select {
		case out <- w:
			return true
		case <-stop:
			return false
		}
	}
	var carry []byte
	want := first
	for made := 0; ; want = size {
		var buf []byte
		if made < windowBuffers {
			made++ // a new buffer, allocated below
		} else {
			select {
			case buf = <-free:
			case <-stop:
				return
			}
		}
		if need := max(want, 2*len(carry)); len(buf) < need {
			buf = make([]byte, need)
		}
		n := copy(buf, carry)
		for {
			m, err := io.ReadFull(r, buf[n:])
			n += m
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if n > 0 {
					send(textWindow{buf: buf, text: buf[:n]})
				}
				return
			}
			if err != nil {
				send(textWindow{err: fmt.Errorf("graph: read edge list: %w", err)})
				return
			}
			if cut := bytes.LastIndexByte(buf[:n], '\n'); cut >= 0 {
				carry = append(carry[:0], buf[cut+1:n]...)
				if !send(textWindow{buf: buf, text: buf[:cut+1]}) {
					return
				}
				break
			}
			// One line spans the whole window: grow and keep reading, up
			// to the per-line cap (the window starts at a line boundary,
			// so n is the line's length so far).
			if n > maxEdgeListLine {
				send(textWindow{err: errLineTooLong})
				return
			}
			grown := make([]byte, 2*len(buf))
			copy(grown, buf[:n])
			buf = grown
		}
	}
}

// parseChunksParallel splits a line-aligned window into ~chunkSize pieces
// and parses them on up to parallelism goroutines. A window shorter than
// parallelism chunks — the first and the last — is cut into parallelism
// smaller pieces instead, so it still occupies every goroutine.
func parseChunksParallel(window []byte, parallelism, chunkSize int) []edgeChunk {
	chunks := splitChunks(window, min(chunkSize, (len(window)+parallelism-1)/parallelism))
	results := make([]edgeChunk, len(chunks))
	if parallelism > len(chunks) {
		parallelism = len(chunks)
	}
	if parallelism <= 1 {
		for i, c := range chunks {
			results[i] = parseEdgeChunk(c)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				results[i] = parseEdgeChunk(chunks[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// splitChunks cuts data into pieces of roughly target bytes, each ending on
// a line boundary (except possibly the last).
func splitChunks(data []byte, target int) [][]byte {
	if len(data) == 0 {
		return nil
	}
	var chunks [][]byte
	for start := 0; start < len(data); {
		end := start + target
		if end >= len(data) {
			chunks = append(chunks, data[start:])
			break
		}
		nl := bytes.IndexByte(data[end:], '\n')
		if nl < 0 {
			chunks = append(chunks, data[start:])
			break
		}
		end += nl + 1
		chunks = append(chunks, data[start:end])
		start = end
	}
	return chunks
}

// errLineTooLong reports a line over maxEdgeListLine. It is checked both
// while a window grows toward an unseen newline and per parsed line, so
// the outcome does not depend on how lines pack into windows.
var errLineTooLong = fmt.Errorf("exceeds %d bytes", maxEdgeListLine)

// edgeChunk is the parse result of one chunk.
type edgeChunk struct {
	edges   []Edge
	maxID   int64 // largest vertex id seen, -1 if none
	lines   int   // lines consumed (valid when err == nil)
	errLine int   // 1-based line within the chunk of err
	err     error
}

// parseEdgeChunk parses one line-aligned chunk with a byte-level scanner:
// no intermediate strings, no strings.Fields/TrimSpace allocations. A
// canonical line takes scanCanonicalLine's one-pass path; every other line
// goes through parseEdgeLine.
func parseEdgeChunk(data []byte) edgeChunk {
	res := edgeChunk{maxID: -1}
	if len(data) == 0 {
		return res
	}
	res.edges = make([]Edge, 0, bytes.Count(data, []byte{'\n'})+1)
	line := 0
	for len(data) > 0 {
		line++
		if src, dst, n := scanCanonicalLine(data); n > 0 {
			res.maxID = max(res.maxID, int64(src), int64(dst))
			res.edges = append(res.edges, Edge{Src: src, Dst: dst})
			data = data[n:]
			continue
		}
		var ln []byte
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			ln, data = data, nil
		} else {
			ln, data = data[:nl], data[nl+1:]
		}
		if len(ln) > maxEdgeListLine {
			res.errLine, res.err = line, errLineTooLong
			return res
		}
		src, dst, skip, err := parseEdgeLine(ln)
		if err != nil {
			res.errLine, res.err = line, err
			return res
		}
		if skip {
			continue
		}
		if src > maxLoadVertexID || dst > maxLoadVertexID {
			res.errLine = line
			res.err = fmt.Errorf("vertex id %d exceeds the loader cap %d",
				max(src, dst), uint64(maxLoadVertexID))
			return res
		}
		res.maxID = max(res.maxID, int64(src), int64(dst))
		res.edges = append(res.edges, Edge{Src: VertexID(src), Dst: VertexID(dst)})
	}
	res.lines = line
	return res
}

// scanCanonicalLine parses the line at the start of data if it is
// canonical — digits, a run of spaces and tabs, digits, then '\n' or the
// end of data, with each id at most 10 digits and at most maxLoadVertexID
// — and returns its ids and its length including the newline. It returns
// n == 0 for any other line. parseEdgeLine reads a canonical line the same
// way and finds no error in it, so taking this path changes nothing but
// the speed.
func scanCanonicalLine(data []byte) (src, dst VertexID, n int) {
	src, i, ok := scanCanonicalID(data, 0)
	if !ok {
		return 0, 0, 0
	}
	j := i
	for j < len(data) && (data[j] == ' ' || data[j] == '\t') {
		j++
	}
	if j == i {
		return 0, 0, 0
	}
	dst, end, ok := scanCanonicalID(data, j)
	if !ok || end > maxEdgeListLine {
		return 0, 0, 0
	}
	if end < len(data) {
		if data[end] != '\n' {
			return 0, 0, 0
		}
		end++
	}
	return src, dst, end
}

// scanCanonicalID reads the run of at most 11 digits at data[i:] and
// reports whether it is a canonical id: 1 to 10 digits, at most
// maxLoadVertexID.
func scanCanonicalID(data []byte, i int) (VertexID, int, bool) {
	var v uint64
	j := i
	for j < len(data) && j-i <= 10 && data[j]-'0' <= 9 {
		v = v*10 + uint64(data[j]-'0')
		j++
	}
	return VertexID(v), j, j > i && j-i <= 10 && v <= maxLoadVertexID
}

// isEdgeListSpace reports the ASCII field separators of the SNAP format.
func isEdgeListSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseEdgeLine extracts the first two whitespace-separated uint32 fields of
// one line. Blank and '#'/'%'-prefixed comment lines report skip; extra
// fields after the second are ignored (the SNAP convention).
func parseEdgeLine(ln []byte) (src, dst uint64, skip bool, err error) {
	i := 0
	for i < len(ln) && isEdgeListSpace(ln[i]) {
		i++
	}
	if i == len(ln) || ln[i] == '#' || ln[i] == '%' {
		return 0, 0, true, nil
	}
	src, i, err = parseUintField(ln, i, "src")
	if err != nil {
		return 0, 0, false, err
	}
	for i < len(ln) && isEdgeListSpace(ln[i]) {
		i++
	}
	if i == len(ln) {
		return 0, 0, false, errors.New("want 2 fields, got 1")
	}
	dst, _, err = parseUintField(ln, i, "dst")
	if err != nil {
		return 0, 0, false, err
	}
	return src, dst, false, nil
}

// parseUintField parses the whitespace-delimited token starting at ln[i] as
// a base-10 uint32 and returns the value and the index just past the token.
func parseUintField(ln []byte, i int, name string) (uint64, int, error) {
	j := i
	for j < len(ln) && !isEdgeListSpace(ln[j]) {
		j++
	}
	tok := ln[i:j]
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, j, fmt.Errorf("parse %s: %q: invalid syntax", name, tok)
		}
		v = v*10 + uint64(c-'0')
		if v > math.MaxUint32 {
			return 0, j, fmt.Errorf("parse %s: %q: value out of range", name, tok)
		}
	}
	return v, j, nil
}

// WriteEdgeList writes g in the text format. Mirrored pairs of an undirected
// graph are written once (src < dst, plus self-loops), so a round-trip via
// ReadEdgeList(..., true) reproduces the graph.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d undirected %t\n",
		g.NumVertices(), g.NumEdges(), g.Undirected()); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	buf := make([]byte, 0, 24)
	for _, e := range g.Edges() {
		if g.Undirected() && e.Src > e.Dst {
			continue // the mirror will be regenerated on load
		}
		buf = strconv.AppendUint(buf[:0], uint64(e.Src), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("graph: write edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush edge list: %w", err)
	}
	return nil
}

// WriteBinary writes g in the binary format, staging edges through one
// 64 KiB buffer.
func WriteBinary(w io.Writer, g *Graph) error {
	flags := 0
	if g.Undirected() {
		flags = flagMirrored
	}
	edges := g.Edges()
	if err := binaryFrame.WriteBlocks(w, len(edges), 8, func(dst []byte, i int) {
		binary.LittleEndian.PutUint32(dst, edges[i].Src)
		binary.LittleEndian.PutUint32(dst[4:], edges[i].Dst)
	}, flags, g.NumVertices(), len(edges)); err != nil {
		return fmt.Errorf("graph: write binary graph: %w", err)
	}
	return nil
}

// ReadBinary reads a graph written by WriteBinary, streaming the edges
// through one 64 KiB buffer: the edge slice grows with the bytes that
// arrive, so a corrupt header cannot force a giant allocation, and the
// body is never staged whole.
func ReadBinary(r io.Reader) (*Graph, error) {
	fr, word, err := binaryFrame.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("graph: binary graph: %w", err)
	}
	flags, numVertices, numEdges := word[0], word[1], word[2]
	if flags&^flagMirrored != 0 {
		return nil, fmt.Errorf("graph: binary graph has unknown flags %#x", flags)
	}
	if numVertices > maxLoadVertexID {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the loader cap %d",
			numVertices, uint64(maxLoadVertexID))
	}
	edges := make([]Edge, 0, min(numEdges, 1<<16))
	if err := fr.ReadBlocks(numEdges, 8, func(b []byte) {
		edges = append(edges, Edge{Src: binary.LittleEndian.Uint32(b), Dst: binary.LittleEndian.Uint32(b[4:])})
	}); err != nil {
		return nil, fmt.Errorf("graph: binary graph: %w", err)
	}
	g, err := New(numVertices, edges)
	if err != nil {
		return nil, err
	}
	g.undirected = flags&flagMirrored != 0
	return g, nil
}
