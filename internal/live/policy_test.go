package live

import (
	"testing"

	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// TestEBVPolicyMatchesStreamingEBV is the differential test for a known
// duplicate: EBVPolicy.Assign restates core.StreamingEBV's score (running
// average balance terms, one unit per uncovered endpoint, lowest part wins
// ties) in this package. One seeded edge stream goes through both from an
// empty state — the view advanced exactly as State.Apply advances it — and
// every edge must land on the same part, so the two cannot drift apart
// before they are merged.
func TestEBVPolicyMatchesStreamingEBV(t *testing.T) {
	g := liveGraph(t, 3000, 24000, 11)
	for _, tc := range []struct {
		name        string
		k           int
		alpha, beta float64
	}{
		{"defaults/k=8", 8, 0, 0},
		{"weighted/k=5", 5, 2.5, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []int32
			stream, err := core.NewStreaming(core.StreamingConfig{
				K: tc.k, NumVertices: g.NumVertices(), Alpha: tc.alpha, Beta: tc.beta,
				Emit: func(_ graph.Edge, part int) { want = append(want, int32(part)) },
			})
			if err != nil {
				t.Fatal(err)
			}

			view := &View{
				k: tc.k, numV: g.NumVertices(), g: g,
				ecount: make([]int, tc.k), vcount: make([]int, tc.k),
				sets: make([]partition.Bitset, tc.k),
			}
			for p := range view.sets {
				view.sets[p] = partition.NewBitset(g.NumVertices())
			}
			policy := EBVPolicy{Alpha: tc.alpha, Beta: tc.beta}

			for i, e := range g.Edges() {
				if err := stream.Add(e); err != nil {
					t.Fatal(err)
				}
				p := policy.Assign(view, e)
				if p != want[i] {
					t.Fatalf("edge %d (%d,%d): EBVPolicy chose part %d, StreamingEBV chose %d",
						i, e.Src, e.Dst, p, want[i])
				}
				view.ecount[p]++
				view.numEdges++
				for _, v := range [2]graph.VertexID{e.Src, e.Dst} {
					if !view.sets[p].Get(int(v)) {
						view.sets[p].Set(int(v))
						view.vcount[p]++
						view.replicas++
					}
				}
			}
		})
	}
}
