package live

import (
	"testing"

	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// TestEBVPolicyMatchesStreamingEBV holds the live policy to the streaming
// partitioner: one seeded edge stream goes through core.StreamingEBV and,
// from an empty partition.State advanced with Place exactly as State.Apply
// advances it, through EBVPolicy — every edge must land on the same part.
// Both are drivers over core.ArgminRunning, so this pins the policy's
// weights (α = β = 1, the stream's defaults) and its state handling; the
// weighted case drives the shared function directly.
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
			var want []int
			stream, err := core.NewStreaming(core.StreamingConfig{
				K: tc.k, NumVertices: g.NumVertices(), Alpha: tc.alpha, Beta: tc.beta,
				Emit: func(_ graph.Edge, part int) { want = append(want, part) },
			})
			if err != nil {
				t.Fatal(err)
			}
			st := partition.NewState(g.NumVertices(), tc.k)
			balance := make([]float64, tc.k)
			for i, e := range g.Edges() {
				if err := stream.Add(e); err != nil {
					t.Fatal(err)
				}
				var p int
				if tc.alpha == 0 {
					p = EBVPolicy{}.Assign(st, g, e)
				} else {
					p = core.ArgminRunning(st, tc.alpha, tc.beta, balance, e)
				}
				if p != want[i] {
					t.Fatalf("edge %d (%d,%d): live side chose part %d, StreamingEBV chose %d",
						i, e.Src, e.Dst, p, want[i])
				}
				st.Place(e, p)
			}
		})
	}
}
