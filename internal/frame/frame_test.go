package frame_test

import (
	"bytes"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/cluster"
	"ebv/internal/frame"
	"ebv/internal/frame/frametest"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// sample encodes one small valid frame with its format's own encoder.
func sample(t *testing.T, encode func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFormats runs frametest.Check over a valid sample of each framed
// format, through that format's own decoder. EBVC's reader is unexported:
// internal/cluster runs the same check (TestControlFrameFormat).
func TestFormats(t *testing.T) {
	checkpoint := sample(t, func(buf *bytes.Buffer) error {
		data, err := cluster.EncodeCheckpoint(cluster.CheckpointMeta{Job: 1, Part: 0, Workers: 2, Width: 1}, &bsp.Checkpoint{
			Step: 3, State: &graph.ValueMatrix{Width: 2, Data: []float64{1, -2, 0.5, 4}},
			InboxIDs: []graph.VertexID{5}, InboxVals: []float64{0.25},
			Vote: bsp.Vote{Min: 7, Flag: true, Voted: true},
		})
		buf.Write(data)
		return err
	})
	shard := sample(t, func(buf *bytes.Buffer) error {
		return bsp.WriteSubgraph(buf, &bsp.Subgraph{
			Part: 0, NumWorkers: 2, NumGlobalVertices: 4,
			GlobalIDs:       []graph.VertexID{0, 1, 3},
			Edges:           []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
			PeerStart:       []int32{0, 1, 1, 1},
			Peers:           []int32{1},
			GlobalOutDegree: []int32{1, 1, 0},
			GlobalInDegree:  []int32{0, 1, 1},
			Weights:         []float64{1.5, 2},
		})
	})
	binaryGraph := sample(t, func(buf *bytes.Buffer) error {
		g, err := graph.NewUndirected(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}, {Src: 3, Dst: 1}})
		if err != nil {
			return err
		}
		return graph.WriteBinary(buf, g)
	})
	assignment := sample(t, func(buf *bytes.Buffer) error {
		return partition.WriteAssignmentBinary(buf, &partition.Assignment{K: 3, Parts: []int32{0, 2, 1, 1, 0}})
	})

	for _, tc := range []struct {
		name   string
		sample []byte
		decode func([]byte) error
	}{
		{"EBVK", checkpoint, func(b []byte) error { _, _, err := cluster.DecodeCheckpoint(b); return err }},
		{"EBVS", shard, func(b []byte) error { _, err := bsp.ReadSubgraph(bytes.NewReader(b)); return err }},
		{"EBVG", binaryGraph, func(b []byte) error { _, err := graph.ReadBinary(bytes.NewReader(b)); return err }},
		{"EBVA", assignment, func(b []byte) error { _, err := partition.ReadAssignmentBinary(bytes.NewReader(b)); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) { frametest.Check(t, tc.name, tc.sample, tc.decode) })
	}
}

var testFrame = frame.Format{Name: "EBVT", Version: 3, Words: 2}

// seal builds a testFrame frame with Begin and Seal.
func seal(w0, w1 int, body []byte) []byte {
	return frame.Seal(append(testFrame.Begin(len(body), w0, w1), body...))
}

// stream writes the same frame through WriteBlocks.
func stream(t *testing.T, w0, w1 int, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testFrame.WriteBlocks(&buf, len(body), 1, func(dst []byte, i int) { dst[0] = body[i] }, w0, w1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readStream reads one testFrame frame whose body length is its second
// header word through Reader.ReadBlocks, returning what Open returns.
func readStream(r *bytes.Reader) ([]int, []byte, error) {
	fr, words, err := testFrame.NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	var body []byte
	err = fr.ReadBlocks(words[1], 1, func(b []byte) { body = append(body, b...) })
	return words, body, err
}

// FuzzOpen: Open over arbitrary bytes never panics, and a frame it accepts
// re-seals to exactly those bytes and reads the same through Reader. A
// frame built from the fuzzed body — by Seal and by WriteBlocks, which
// must agree byte for byte — opens to that body, and every truncation and
// sampled single-bit flip of it fails.
func FuzzOpen(f *testing.F) {
	f.Add(uint32(1), []byte("body"))
	f.Add(uint32(0), []byte{})
	f.Add(uint32(7), seal(7, 4, []byte("body")))
	f.Fuzz(func(t *testing.T, w0 uint32, data []byte) {
		if words, body, err := testFrame.Open(data); err == nil {
			if again := seal(words[0], words[1], body); !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-seals to %x, read %x", again, data)
			}
			if words[1] == len(body) {
				r := bytes.NewReader(data)
				if _, got, err := readStream(r); err != nil || !bytes.Equal(got, body) || r.Len() != 0 {
					t.Fatalf("Reader disagrees with Open: %x, %d bytes left, %v", got, r.Len(), err)
				}
			}
		}

		sealed := seal(int(w0), len(data), data)
		if streamed := stream(t, int(w0), len(data), data); !bytes.Equal(streamed, sealed) {
			t.Fatalf("WriteBlocks wrote %x, Seal %x", streamed, sealed)
		}
		words, body, err := testFrame.Open(sealed)
		if err != nil || words[0] != int(w0) || words[1] != len(data) || !bytes.Equal(body, data) {
			t.Fatalf("round trip: words %v body %x err %v", words, body, err)
		}
		if _, got, err := readStream(bytes.NewReader(sealed)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Reader round trip: %x, %v", got, err)
		}
		for cut := range len(sealed) {
			if _, _, err := testFrame.Open(sealed[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes opened", cut, len(sealed))
			}
			if _, _, err := readStream(bytes.NewReader(sealed[:cut])); err == nil {
				t.Fatalf("truncation to %d/%d bytes read", cut, len(sealed))
			}
		}
		stride := 1
		if len(sealed) > 512 {
			stride = len(sealed) / 64
		}
		for bit := 0; bit < 8*len(sealed); bit += stride {
			flipped := bytes.Clone(sealed)
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, _, err := testFrame.Open(flipped); err == nil {
				t.Fatalf("bit flip at %d opened", bit)
			}
		}
	})
}
