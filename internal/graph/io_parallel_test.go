package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// chunkedCases are crafted edge lists covering the parser's corner cases:
// comments, blank lines, CRLF endings, tabs, extra fields, no trailing
// newline, self-loops, inputs that must be rejected, and lines on either
// side of the canonical-line fast path's boundary.
var chunkedCases = []struct {
	name  string
	input string
}{
	{"empty", ""},
	{"single", "0 1\n"},
	{"comments", "# header\n% other\n0 1\n\n2 3\n"},
	{"crlf", "0 1\r\n1 2\r\n"},
	{"tabs", "0\t1\n1\t\t2\n"},
	{"extra-fields", "0 1 17 whatever\n2 3 x\n"},
	{"no-trailing-newline", "0 1\n1 2"},
	{"self-loops", "0 0\n1 1\n0 1\n"},
	{"leading-space", "  0 1\n\t2 3\n"},
	{"padded-comment", "   # note\n0 1\n"},
	{"leading-zeros", "0007 00\n0000000003 0000000009\n"},
	{"eleven-digit-ids", "00000000001 2\n3 00000000004\n"},
	{"double-tab", "0\t\t1\n"},
	{"trailing-space", "0 1 \n1 2\t\n"},
	{"mixed-crlf", "0 1\n1 2\r\n2 3\n"},
	{"last-line-crlf", "0 1\r\n1 2\r"},
	{"space-then-eof", "0 1\n2 3 "},
	{"err-plus-sign", "0 1\n+1 2\n"},
	{"err-minus-sign", "0 1\n-1 2\n"},
	{"err-dst-suffix", "0 1\n1 2x\n"},
	{"err-one-field", "0 1\n7\n"},
	{"err-bad-src", "0 1\nx 2\n"},
	{"err-bad-dst", "0 1\n2 y\n"},
	{"err-overflow", "0 1\n0 4294967296\n"},
	{"err-max-uint32", "0 1\n4294967295 0\n"},
	{"err-cap", "0 1\n0 268435457\n"},
	{"err-ten-digits", "0 1\n1234567890 0\n"},
	{"err-eleven-digits", "0 1\n12345678901 0\n"},
	{"err-late", strings.Repeat("0 1\n", 100) + "boom\n"},
}

// referenceParseEdges is the edge-list parser as one sequential loop of
// parseEdgeLine over the lines of data: no windows, no chunks, no fast
// path. It returns the edges and the largest id, or the first error and
// its 1-based line.
func referenceParseEdges(data []byte) (edges []Edge, maxID int64, line int, err error) {
	maxID = -1
	for line = 1; len(data) > 0; line++ {
		var ln []byte
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			ln, data = data, nil
		} else {
			ln, data = data[:nl], data[nl+1:]
		}
		if len(ln) > maxEdgeListLine {
			return nil, 0, line, errLineTooLong
		}
		src, dst, skip, err := parseEdgeLine(ln)
		if err != nil {
			return nil, 0, line, err
		}
		if skip {
			continue
		}
		if src > maxLoadVertexID || dst > maxLoadVertexID {
			return nil, 0, line, fmt.Errorf("vertex id %d exceeds the loader cap %d", max(src, dst), uint64(maxLoadVertexID))
		}
		maxID = max(maxID, int64(src), int64(dst))
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(dst)})
	}
	return edges, maxID, 0, nil
}

// referenceReadEdgeList is the loader's oracle, as referenceSortedBySumDegree
// is the sort's: on every input ReadEdgeListParallel must return this
// graph, or this error text with this line number, at any parallelism and
// chunk size.
func referenceReadEdgeList(data []byte, undirected bool) (*Graph, error) {
	edges, maxID, line, err := referenceParseEdges(data)
	if err != nil {
		return nil, fmt.Errorf("graph: line %d: %w", line, err)
	}
	if undirected {
		return NewUndirected(int(maxID+1), edges)
	}
	return New(int(maxID+1), edges)
}

// assertLoaderMatchesReference loads data every way the tests force —
// one chunk, tiny windows and chunks, and the exported entry point — and
// compares each result with referenceReadEdgeList.
func assertLoaderMatchesReference(t *testing.T, data []byte, undirected bool) {
	t.Helper()
	want, wantErr := referenceReadEdgeList(data, undirected)
	check := func(name string, got *Graph, gotErr error) {
		t.Helper()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: err = %v, reference err = %v", name, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: err %q, reference err %q", name, gotErr, wantErr)
			}
			return
		}
		assertSameGraph(t, want, got)
		if got.Undirected() != undirected {
			t.Fatalf("%s: Undirected() = %t", name, got.Undirected())
		}
	}
	got, err := readEdgeListChunked(data, undirected, 1, len(data)+1)
	check("one chunk", got, err)
	for _, chunkSize := range []int{1, 3, 7} {
		got, err := readEdgeListChunked(data, undirected, 4, chunkSize)
		check(fmt.Sprintf("chunk %d", chunkSize), got, err)
	}
	got, err = ReadEdgeListParallel(bytes.NewReader(data), undirected, 0)
	check("ReadEdgeListParallel", got, err)
}

// TestReadEdgeListChunkedMatchesSequential forces tiny windows and chunks
// so every crafted input spans several parse units, and asserts the result
// (graph or error, including the reported line number) is the sequential
// reference loader's, directed and mirrored.
func TestReadEdgeListChunkedMatchesSequential(t *testing.T) {
	for _, tc := range chunkedCases {
		t.Run(tc.name, func(t *testing.T) {
			assertLoaderMatchesReference(t, []byte(tc.input), false)
			assertLoaderMatchesReference(t, []byte(tc.input), true)
		})
	}
}

// TestParseEdgeChunkCanonicalBoundary compares the chunk scanner with the
// reference parser on lines at the fast path's limits whose ids are
// accepted but too large to build a graph over in a test (the loader cap
// admits 2^28 vertices).
func TestParseEdgeChunkCanonicalBoundary(t *testing.T) {
	for _, input := range []string{
		"268435456 0\n",
		"0 268435456",
		"0268435456\t1\n",
		"268435456 268435456\n268435457 0\n",
		"00268435456 0\n",
		"1 2\n3\t268435456\n4294967295 1\n",
		"0 1\n4294967296 1\n",
	} {
		edges, maxID, line, err := referenceParseEdges([]byte(input))
		got := parseEdgeChunk([]byte(input))
		if (err == nil) != (got.err == nil) {
			t.Fatalf("%q: err = %v, reference err = %v", input, got.err, err)
		}
		if err != nil {
			if got.err.Error() != err.Error() || got.errLine != line {
				t.Fatalf("%q: line %d: %v, reference line %d: %v", input, got.errLine, got.err, line, err)
			}
			continue
		}
		if got.maxID != maxID || !slices.Equal(got.edges, edges) {
			t.Fatalf("%q: edges %v max %d, reference %v max %d", input, got.edges, got.maxID, edges, maxID)
		}
	}
}

// TestScanCanonicalID holds the fast path's id scanner to a plain reading
// of the digit run: every run length from 0 to 12 digits, every byte
// after it, at the end of the input and before more text.
func TestScanCanonicalID(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 12; n++ {
		for term := 0; term < 256; term++ {
			for _, pad := range []string{"", "\n", "0 1\n12345"} {
				digits := make([]byte, n)
				for k := range digits {
					digits[k] = byte('0' + r.Intn(10))
				}
				data := append(append(append([]byte("9 "), digits...), byte(term)), pad...)
				run := 0
				for 2+run < len(data) && data[2+run] >= '0' && data[2+run] <= '9' {
					run++
				}
				wantOK := run >= 1 && run <= 10
				var want uint64
				if wantOK {
					want, _ = strconv.ParseUint(string(data[2:2+run]), 10, 64)
					wantOK = want <= maxLoadVertexID
				}
				v, end, ok := scanCanonicalID(data, 2)
				if ok != wantOK || (ok && (uint64(v) != want || end != 2+run)) {
					t.Fatalf("%q: got (%d, %d, %t), want (%d, %d, %t)", data, v, end, ok, want, 2+run, wantOK)
				}
			}
		}
	}
}

// slowTailReader is a strings.Reader whose reads past the first slowAfter
// bytes take 20 ms, like a slow device, and which counts the reads that
// end after returned is set.
type slowTailReader struct {
	r         *strings.Reader
	slowAfter int
	returned  atomic.Bool
	late      atomic.Int32
}

func (w *slowTailReader) Read(p []byte) (int, error) {
	if int(w.r.Size())-w.r.Len() >= w.slowAfter {
		time.Sleep(20 * time.Millisecond)
	}
	n, err := w.r.Read(p)
	if w.returned.Load() {
		w.late.Add(1)
	}
	return n, err
}

// TestReadEdgeListErrorStopsReadAhead fails the parse in a middle window
// while the read-ahead goroutine is inside a slow read of the next one,
// and checks that the loader returns only after that read, with its
// goroutine gone: the reader is not in use after the return, and the
// goroutine count falls back to where it started.
func TestReadEdgeListErrorStopsReadAhead(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	bad := sb.Len()
	sb.WriteString("bad line\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	before := runtime.NumGoroutine()
	r := &slowTailReader{r: strings.NewReader(sb.String()), slowAfter: bad + 1}
	// 1 KiB chunks, 2 per window: the bad line sits in window ~25 of ~50.
	_, err := readEdgeListStream(r, false, 2, 1<<10)
	r.returned.Store(true)
	if err == nil || !strings.Contains(err.Error(), "line 5001:") {
		t.Fatalf("err = %v, want one naming line 5001", err)
	}
	// The loader waits for its reader to close the window channel; the
	// goroutine's exit follows that close at once.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the loader returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if n := r.late.Load(); n != 0 {
		t.Fatalf("%d reads ended after the loader returned", n)
	}
}

// TestReadEdgeListParallelLargeInput checks a multi-chunk input at the real
// chunk size against the reference loader, byte-identical edge order
// included.
func TestReadEdgeListParallelLargeInput(t *testing.T) {
	var sb strings.Builder
	state := uint64(42)
	for i := 0; i < 50000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(&sb, "%d %d\n", state%10000, (state>>32)%10000)
	}
	data := []byte(sb.String())
	want, err := referenceReadEdgeList(data, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readEdgeListChunked(data, false, 8, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, want, got)

	// The exported entry point agrees too.
	got2, err := ReadEdgeListParallel(bytes.NewReader(data), false, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, want, got2)
}

// TestReadEdgeListLineCap checks the per-line length bound: a newline-free
// blob (e.g. a binary file fed to the text loader) must fail fast instead
// of being buffered whole, identically at any parallelism.
func TestReadEdgeListLineCap(t *testing.T) {
	atCap := "0 " + strings.Repeat("1", maxEdgeListLine-2) // exactly maxEdgeListLine bytes
	overCap := atCap + "1"
	for _, par := range []int{1, 4} {
		if _, err := ReadEdgeListParallel(strings.NewReader("0 1\n"+overCap), false, par); err == nil {
			t.Fatalf("parallelism %d: over-cap line accepted", par)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("parallelism %d: err %q, want line 2", par, err)
		}
		// At the cap the line parses (and is rejected only for its value).
		if _, err := ReadEdgeListParallel(strings.NewReader(atCap+"\n"), false, par); err == nil ||
			strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("parallelism %d: at-cap line hit the length cap: %v", par, err)
		}
	}
	// Tiny windows must agree too (the grow path enforces the same cap).
	if _, err := readEdgeListChunked([]byte(overCap), false, 4, 7); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Fatalf("tiny-window over-cap: %v", err)
	}
}

// TestReadEdgeListErrorLineNumbers pins the global line number reported
// for an error that sits far from the failing chunk's start.
func TestReadEdgeListErrorLineNumbers(t *testing.T) {
	input := "# header\n0 1\n\n1 2\nbad line\n"
	for _, chunkSize := range []int{1, 5, len(input) + 1} {
		_, err := readEdgeListChunked([]byte(input), false, 4, chunkSize)
		if err == nil {
			t.Fatalf("chunk %d: malformed input accepted", chunkSize)
		}
		if !strings.Contains(err.Error(), "line 5") {
			t.Fatalf("chunk %d: err %q, want line 5", chunkSize, err)
		}
	}
}
