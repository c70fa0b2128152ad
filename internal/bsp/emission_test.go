// Emission-order goldens: every byte a program hands the engine — which
// destination, which ids, which values, in which row order, in which
// superstep — is pinned, so kernel rewrites inside the apps and delivery
// changes inside the engine can be proven to move none of them.
package bsp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// pinnedGraphs are the fixed inputs of the golden and ledger tests (the
// same two internal/core pins its assignments on): a skewed power-law graph
// and a near-uniform road lattice.
func pinnedGraphs(t *testing.T) (powerlaw, road *graph.Graph) {
	t.Helper()
	powerlaw, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 24000, Eta: 2.0, Directed: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	road, err = gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return powerlaw, road
}

// emissionRecorder wraps a program so that each worker hashes what its
// Superstep returns, before the engine ships it.
type emissionRecorder struct {
	inner  bsp.Program
	hashes []hash.Hash // one per worker; each is written by its worker only
}

func (r *emissionRecorder) Name() string { return r.inner.Name() }

func (r *emissionRecorder) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &emissionWorker{WorkerProgram: r.inner.NewWorker(sub, env), h: r.hashes[sub.Part]}
}

type emissionWorker struct {
	bsp.WorkerProgram
	h hash.Hash
}

func (w *emissionWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	out, active := w.WorkerProgram.Superstep(step, in)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(step))
	for dst, b := range out {
		if b == nil {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(dst))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Len()))
		for _, id := range b.IDs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
		for _, v := range b.Vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	w.h.Write(buf)
	return out, active
}

// emissionSHA256 runs prog over subs and folds the per-worker emission
// hashes and per-step Sent counts, in worker order, into one digest.
func emissionSHA256(t *testing.T, subs []*bsp.Subgraph, prog bsp.Program, cfg bsp.Config) string {
	t.Helper()
	rec := &emissionRecorder{inner: prog, hashes: make([]hash.Hash, len(subs))}
	for i := range rec.hashes {
		rec.hashes[i] = sha256.New()
	}
	res, err := bsp.Run(t.Context(), subs, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := sha256.New()
	for w, h := range rec.hashes {
		buf := h.Sum(nil)
		for _, sent := range res.Workers[w].Sent {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(sent))
		}
		total.Write(buf)
	}
	return hex.EncodeToString(total.Sum(nil))
}

// TestGoldenEmissions pins each app's outgoing batches bit for bit. The
// digests were produced by this file at commit c3c55b9 (PR 14), where the
// receiver still merged the inbox id-sorted under combining, SSSP/WSSSP
// emitted from a sorted map and PageRank divided per edge; they must never
// move. Sent is hashed too. The digests were recorded with sender-side
// combining on and off, one digest for both; combining is gone and they
// kept their bytes.
//
// The "@w4", "-warm" and "PR-delta" cells were added at commit 869f460,
// ahead of the routing-plan send paths: scalar apps at width 4 pin the
// zero-padded rows, the warm cell a CC seeded from a run over the first
// 90 % of the edges, and the converging PageRank (Tol > 0, then a separate
// program). A "-sendall" cell pinned CC's re-send-everything mode until
// that mode was deleted, and the two "-warm" cells went with CC's warm
// start, which the link union made pointless.
//
// The four unit-weight SSSP cells (powerlaw and road, widths 1 and 4) were
// re-recorded once, when SSSP's relax became bounded by the per-superstep
// distance horizon, and the CC cells (powerlaw and road: width 1, width 4,
// and warm while it lasted) five times: when CC began flooding its
// smallest replicated label before Hash-Min, when the flood's sentinel
// rows became the engine's collective vote, which a program no longer
// emits, when CC's step 0 stopped broadcasting every replicated label (the
// flood now sends one broadcast, one superstep later), when CC began
// sending along component links, one row per pair of local components
// that meet instead of one per replica pair, and when the flood gave way
// to the union of the links at worker 0 (three supersteps: the links in,
// the relabelled labels out). The two PR-delta cells were re-recorded at
// the second change too, for the same reason. Each time the values were
// unchanged and only the emission sequence moved; the step counts were
// unchanged too, except the third time, which added one CC superstep, and
// the fifth, which fixed CC at three. Every other cell kept its digest.
func TestGoldenEmissions(t *testing.T) {
	pl, road := pinnedGraphs(t)
	const k = 8
	seen := 0
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"powerlaw", pl}, {"road", road}} {
		a, err := core.New().Partition(t.Context(), tc.g, k)
		if err != nil {
			t.Fatal(err)
		}
		subs := buildWeightedSubs(t, tc.g, a)
		// The max-out-degree vertex reaches most of either graph.
		src := graph.VertexID(0)
		for v := 0; v < tc.g.NumVertices(); v++ {
			if tc.g.OutDegree(graph.VertexID(v)) > tc.g.OutDegree(src) {
				src = graph.VertexID(v)
			}
		}
		for _, app := range []struct {
			prog  bsp.Program
			width int
			tag   string
		}{
			{&apps.CC{}, 1, ""},
			{&apps.PageRank{Iterations: 6}, 1, ""},
			{&apps.SSSP{Source: src}, 1, ""},
			{&apps.SSSP{Source: src, Weighted: true}, 1, ""},
			{&apps.Aggregate{Layers: 2}, 8, ""},
			{&apps.CC{}, 4, "@w4"},
			{&apps.PageRank{Iterations: 6}, 4, "@w4"},
			{&apps.SSSP{Source: src}, 4, "@w4"},
			{&apps.PageRank{Tol: 1e-6, Iterations: 500}, 1, "-delta"},
		} {
			key := tc.name + "/" + app.prog.Name() + app.tag
			seen++
			got := emissionSHA256(t, subs, app.prog, bsp.Config{ValueWidth: app.width})
			if got != goldenEmissions[key] {
				t.Errorf("%q: %q, golden %q", key, got, goldenEmissions[key])
			}
		}
	}
	if seen != len(goldenEmissions) {
		t.Errorf("checked %d cells, table has %d", seen, len(goldenEmissions))
	}
}

var goldenEmissions = map[string]string{
	"powerlaw/CC":        "5ad2a98eba65ff370984d1869993a9883347e4575aca3d8a1661663005b10f2d",
	"powerlaw/PR":        "5753e1cd5b2238cb91da212aaef92ebc114fd408cd17bb447dd1e4adc3b02c0d",
	"powerlaw/SSSP":      "bb9d18e4670f0b68591d501668983f86121d41d4c42918619b15203ba7b8d597",
	"powerlaw/WSSSP":     "8d61198669a9efc714a66e58e2e5b61d87cbc560ae21d3f4ade56a946ceec1e4",
	"powerlaw/Aggregate": "cb21ad0c5beb1dfabaf6a1e7c411a1acee3a844fa72f6aac647bdcae4ea9e03d",
	"road/CC":            "5e566c8e23149976353287aff6b69a5430754fb4077cca937378b86e8ec204a7",
	"road/PR":            "8ab5c03f19c54d4934f802bbd4d30681f24e71b8a79eef9740a30ef360d1e328",
	"road/SSSP":          "95c9ab22cb46434f6fb6aef63056a04674f58937502da71e392e701a36e1bfcc",
	"road/WSSSP":         "052912a9f001a70c5425a3024360f3b063c5e4022d61964af54cd21cd59b2d73",
	"road/Aggregate":     "a222589ce943976ef56888c40ed56d746ee5d4c23e84f2f52772ad201a2c2e4e",
	"powerlaw/CC@w4":     "8d4c574360b3beed1116304c7a2ca77243e9b235f7eaaa7c6b7b138a35486e4f",
	"powerlaw/PR@w4":     "4030d33647cd6ce8780f8c3b39093aec46d129af470a34eb0763724a383c9bc3",
	"powerlaw/SSSP@w4":   "ad3a9900c6a69d022dc7c50eef3a5b478560e8173b68f4c7da0bdb8071ee8daf",
	"powerlaw/PR-delta":  "d08330bc2cce296327e5dd6f809d551d78bc359fe53f4b3a996b2e0e019c66f6",
	"road/CC@w4":         "ea32790992114f5d27e52eeffa10fe8c5f21248043bcf8a2090d625915cf228f",
	"road/PR@w4":         "7b6350ac34b5e64cadeb6643ff648245af9f4d5d4e2106039a94d10f968355bd",
	"road/SSSP@w4":       "fb46890f12ad6b72180f3c8c7b567f2be227f1b07f1be63eb61e0b1923f70fdb",
	"road/PR-delta":      "b687bb10095f1332b3cb9e7b3203d3adbd28766b94ad8fdceb1ab71bfdadd4df",
}
