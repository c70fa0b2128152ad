package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"ebv/internal/graph"
)

// route is one block's (src, dst).
type route struct{ src, dst int }

// encodeBundle writes the round bundle carrying one small block per route,
// in the order given, and returns its wire bytes.
func encodeBundle(t testing.TB, round int, flags byte, routes []route) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := writeBundle(bw, 3, 9, round, flags, 2, routeBlocks(t, routes)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routeBlocks encodes one small width-2 block per route.
func routeBlocks(t testing.TB, routes []route) []wireBlock {
	t.Helper()
	blocks := make([]wireBlock, len(routes))
	for i, r := range routes {
		b := NewMessageBatch(2)
		for row := 0; row <= i; row++ {
			b.AppendRow(graph.VertexID(10*r.src+row), []float64{float64(r.dst), 0.5})
		}
		raw, err := appendBlock(nil, r.src, r.dst, b)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = wireBlock{src: r.src, dst: r.dst, raw: raw}
	}
	return blocks
}

// readFrom reads data as worker to of a k = 8 mesh, sent by worker from.
func readFrom(data []byte, from, to int) (bundle, error) {
	var s bundleScratch
	return readBundle(bufio.NewReader(bytes.NewReader(data)), 8, from, to, &s)
}

// relayRound is round 1 of the k = 8 radix-2 schedule from worker 0 to
// worker 2: worker 0's own blocks for 2 and 6, and the blocks worker 7
// handed it in round 0 for the same two destinations.
var relayRound = []route{{0, 2}, {7, 2}, {0, 6}, {7, 6}}

// TestBundleDamageRejected: every proper prefix and every single-bit flip
// of a multi-block radix-2 bundle carrying relayed blocks fails the read
// loudly; only a cut before the first byte is a clean end of stream.
func TestBundleDamageRejected(t *testing.T) {
	data := encodeBundle(t, 1, bundleBruck|bundleActive, relayRound)
	b, err := readFrom(data, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.blocks) != len(relayRound) || b.round != 1 || b.step != 9 || b.job != 3 {
		t.Fatalf("bundle read back as job %d step %d round %d with %d blocks", b.job, b.step, b.round, len(b.blocks))
	}
	for i, blk := range b.blocks {
		if (route{blk.src, blk.dst}) != relayRound[i] {
			t.Fatalf("block %d runs %d → %d, want %v", i, blk.src, blk.dst, relayRound[i])
		}
		got := decodeBlock(blk.raw, b.width)
		if got.Len() != i+1 || got.Vals[0] != float64(blk.dst) {
			t.Fatalf("block %d decoded to %v", i, got)
		}
		RecycleBatch(got)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := readFrom(data[:cut], 0, 2); err == nil || (err == io.EOF) != (cut == 0) {
			t.Fatalf("bundle cut to %d/%d bytes: err = %v", cut, len(data), err)
		}
	}
	for bit := 0; bit < len(data)*8; bit++ {
		corrupt := bytes.Clone(data)
		corrupt[bit/8] ^= 1 << (bit % 8)
		if _, err := readFrom(corrupt, 0, 2); err == nil {
			t.Fatalf("bit flip at %d read silently", bit)
		}
	}
}

// TestBundleRejectsMisroutedBlocks: a bundle under a valid CRC still fails
// if it names a worker outside [0,k), arrives over an edge its round does
// not use, or carries a block that does not route through its round, twice
// or out of order.
func TestBundleRejectsMisroutedBlocks(t *testing.T) {
	seal := func(round int, flags byte, routes []route) []byte {
		var body []byte
		for _, b := range routeBlocks(t, routes) {
			body = append(body, b.raw...)
		}
		return sealBundleRound(round, flags, len(routes), 2, body)
	}
	for _, tc := range []struct {
		name     string
		data     []byte
		from, to int
		want     string
	}{
		{"src-out-of-range", seal(1, bundleBruck, []route{{9, 2}}), 0, 2, "outside"},
		{"dst-out-of-range", seal(0, 0, []route{{0, 8}}), 0, 1, "outside"},
		{"wrong-edge", seal(1, bundleBruck, nil), 0, 3, "cannot reach"},
		{"round-beyond-schedule", seal(3, bundleBruck, nil), 0, 0, "out of range"},
		{"not-this-round", seal(1, bundleBruck, []route{{0, 3}}), 0, 2, "does not route"},
		{"already-delivered", seal(1, bundleBruck, []route{{7, 0}}), 0, 2, "does not route"},
		{"direct-not-from-sender", seal(0, 0, []route{{3, 1}}), 0, 1, "does not route"},
		{"direct-not-for-receiver", seal(0, 0, []route{{0, 2}}), 0, 1, "does not route"},
		{"duplicate", seal(1, bundleBruck, []route{{0, 2}, {0, 2}}), 0, 2, "out of order"},
		{"out-of-order", seal(1, bundleBruck, []route{{0, 6}, {0, 2}}), 0, 2, "out of order"},
		{"too-many-blocks", seal(0, 0, make([]route, 8)), 0, 1, "blocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrom(tc.data, tc.from, tc.to)
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzBundleFrame: no input panics the bundle reader or the block decoder,
// and anything the reader accepts is canonical — writing its header fields
// and blocks back reproduces the accepted bytes exactly.
func FuzzBundleFrame(f *testing.F) {
	f.Add(encodeBundle(f, 1, bundleBruck|bundleSmall, relayRound), uint8(0), uint8(2))
	f.Add(encodeBundle(f, 0, bundleActive, []route{{0, 1}}), uint8(0), uint8(1))
	f.Add(encodeBundle(f, 2, bundleBruck, []route{{5, 1}, {6, 1}, {7, 1}, {0, 5}}), uint8(1), uint8(5))
	f.Add(encodeBundle(f, 0, 0, nil), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, from, to uint8) {
		b, err := readFrom(data, int(from%8), int(to%8))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		n, err := writeBundle(bw, b.job, b.step, b.round, b.flags, b.width, b.blocks)
		if err != nil {
			t.Fatal(err)
		}
		if n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("accepted bundle does not re-encode to its own %d bytes", n)
		}
		for _, blk := range b.blocks {
			RecycleBatch(decodeBlock(blk.raw, b.width))
		}
	})
}
