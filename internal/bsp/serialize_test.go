// Shard codec tests: the bytes WriteSubgraph produces are pinned, every
// way of damaging them ends in an attributed error, and what comes back
// from ReadSubgraph is the subgraph that went in.
package bsp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
)

// readShard is ReadSubgraph under the suite's contract: it never panics,
// and an error is attributed to this package.
func readShard(t *testing.T, what string, shard []byte) (*bsp.Subgraph, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: ReadSubgraph panicked: %v", what, r)
		}
	}()
	sub, err := bsp.ReadSubgraph(bytes.NewReader(shard))
	if err != nil && !strings.HasPrefix(err.Error(), "bsp:") {
		t.Fatalf("%s: error not attributed to bsp: %v", what, err)
	}
	return sub, err
}

// TestSubgraphRoundTripExact: every shipped field comes back equal —
// weights bit for bit, nil weights still nil — and the rebuilt views match
// the originals.
func TestSubgraphRoundTripExact(t *testing.T) {
	pl, _ := pinnedGraphs(t)
	a, err := core.New().Partition(t.Context(), pl, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, subs := range map[string][]*bsp.Subgraph{
		"weighted":   buildWeightedSubs(t, pl, a),
		"unweighted": buildSubs(t, pl, core.New(), 8),
	} {
		for _, sub := range subs {
			var buf bytes.Buffer
			if err := bsp.WriteSubgraph(&buf, sub); err != nil {
				t.Fatal(err)
			}
			got, err := readShard(t, name, buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sub) {
				t.Fatalf("%s part %d: round trip changed the subgraph", name, sub.Part)
			}
		}
	}
}

// TestReadSubgraphEdgelessWeightedPart: a part with no edges of a weighted
// graph must stay weighted (programs test Weights against nil).
func TestReadSubgraphEdgelessWeightedPart(t *testing.T) {
	var buf bytes.Buffer
	if err := bsp.WriteSubgraph(&buf, &bsp.Subgraph{NumWorkers: 1, NumGlobalVertices: 1, Weights: []float64{}}); err != nil {
		t.Fatal(err)
	}
	got, err := readShard(t, "edgeless", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights == nil {
		t.Fatal("edgeless weighted part came back unweighted")
	}
}

// legacyGobShard is validShard's subgraph as the gob codec of PR 15 and
// earlier wrote it.
const legacyGobShard = "ffa97f0301010c73756267726170685769726501ff80000109010450617274010400010a4e756d576f726b6572730104" +
	"0001114e756d476c6f62616c56657274696365730104000109476c6f62616c49447301ff82000105456467657301ff8600010c5265706c69" +
	"6361506565727301ff8a00010f476c6f62616c4f757444656772656501ff8800010e476c6f62616c496e44656772656501ff880001075765" +
	"696768747301ff8c00000016ff81020101085b5d75696e74333201ff8200010600001bff850201010c5b5d67726170682e4564676501ff86" +
	"0001ff84000022ff83030101044564676501ff8400010201035372630106000103447374010600000018ff89020101095b5d5b5d696e7433" +
	"3201ff8a0001ff8800000cff87020102ff88000104000017ff8b020101095b5d666c6f6174363401ff8c000108000026ff80020401080103" +
	"000103010202010001010102000103010200000103020200010300020200"

// TestReadSubgraphRejectsLegacyGob: there is no fallback reader; an old
// shard file fails with an error that names the format and the remedy.
func TestReadSubgraphRejectsLegacyGob(t *testing.T) {
	old, err := hex.DecodeString(legacyGobShard)
	if err != nil {
		t.Fatal(err)
	}
	_, err = readShard(t, "legacy gob", old)
	if err == nil || !strings.Contains(err.Error(), "EBVS") || !strings.Contains(err.Error(), "re-run ebv-partition") {
		t.Fatalf("legacy gob shard: err = %v, want one naming the EBVS format and ebv-partition", err)
	}
}

// TestReadSubgraphDamageSweep: truncating the valid shard at every prefix
// length and flipping every single bit must each end in a bsp: error —
// never a panic, never an accepted shard. With the checksum re-sealed
// behind the flip a shard may be legitimately valid (a degree changed);
// then the only requirement is that validation, not luck, decided.
func TestReadSubgraphDamageSweep(t *testing.T) {
	shard := validShard(t)
	for n := 0; n < len(shard); n++ {
		if sub, err := readShard(t, "truncated", shard[:n]); err == nil {
			t.Fatalf("shard truncated to %d of %d bytes accepted: %+v", n, len(shard), sub)
		}
	}
	for bit := 0; bit < 8*len(shard); bit++ {
		flipped := bytes.Clone(shard)
		flipped[bit/8] ^= 1 << (bit % 8)
		if sub, err := readShard(t, "bit flip", flipped); err == nil {
			t.Fatalf("shard with bit %d flipped accepted: %+v", bit, sub)
		}
		if sub, err := readShard(t, "re-sealed bit flip", resealShard(flipped)); err == nil {
			var buf bytes.Buffer
			if err := bsp.WriteSubgraph(&buf, sub); err != nil || !bytes.Equal(buf.Bytes(), resealShard(flipped)) {
				t.Fatalf("bit %d: accepted shard does not re-encode to the bytes it was read from (%v)", bit, err)
			}
		}
	}
}

// FuzzReadSubgraph: arbitrary bytes, raw and with the checksum re-sealed
// so the fuzzer reaches the structural validation, never panic ReadSubgraph
// and never yield a subgraph that fails to re-encode and re-read or that
// carries a weight the build would refuse (negative or NaN).
func FuzzReadSubgraph(f *testing.F) {
	f.Add(validShard(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, resealShard(bytes.Clone(data)))
		}
		for _, in := range inputs {
			sub, err := readShard(t, "fuzz", in)
			if err != nil {
				continue
			}
			for i, w := range sub.Weights {
				if !(w >= 0) {
					t.Fatalf("accepted shard carries weight %g on edge %d", w, i)
				}
			}
			var buf bytes.Buffer
			if err := bsp.WriteSubgraph(&buf, sub); err != nil {
				t.Fatalf("accepted shard does not re-encode: %v", err)
			}
			if _, err := readShard(t, "fuzz re-read", buf.Bytes()); err != nil {
				t.Fatalf("re-encoded shard rejected: %v", err)
			}
		}
	})
}

// TestGoldenShards pins the on-disk format: SHA-256 over WriteSubgraph's
// bytes for the 8 EBV parts of the pinned power-law graph, unweighted and
// weighted. Shard files outlive the build that wrote them, so a digest may
// only move together with shardVersion.
func TestGoldenShards(t *testing.T) {
	pl, _ := pinnedGraphs(t)
	a, err := core.New().Partition(t.Context(), pl, 8)
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := bsp.BuildSubgraphs(pl, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		subs []*bsp.Subgraph
		want string
	}{
		{"unweighted", unweighted, "bfb9aa03bc00a1f57c1d89b1de0505584b3c409174e270f455000b9201d8a752"},
		{"weighted", buildWeightedSubs(t, pl, a), "682ef8864a1abd8811bc26c33d3f18526bb9211aafa1c895cf7f8066cf6d6ff7"},
	} {
		total := sha256.New()
		for _, sub := range tc.subs {
			if err := bsp.WriteSubgraph(total, sub); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(total.Sum(nil)); got != tc.want {
			t.Errorf("%s shards: digest %s, want %s (format drift needs a shardVersion bump)", tc.name, got, tc.want)
		}
	}
}
