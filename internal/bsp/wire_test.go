// Wire equivalence: the CRC-sealed bundle wire of fixed-width columns and
// its radix-2 relays must be invisible to results — every app produces,
// over the TCP mesh, a ValueMatrix byte-identical to the in-memory
// deployment's — and the bytes it moves are exactly its layout's.
package bsp_test

import (
	"context"
	"fmt"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// runOverDeployment runs prog once over a fresh deployment bound to mesh
// (nil = in-memory).
func runOverDeployment(t *testing.T, subs []*bsp.Subgraph, mesh transport.Deployment, prog bsp.Program, cfg bsp.Config) *bsp.Result {
	t.Helper()
	dep, err := bsp.NewDeployment(subs, mesh)
	if err != nil {
		if mesh != nil {
			mesh.Close()
		}
		t.Fatal(err)
	}
	defer dep.Close()
	res, err := dep.Run(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runOverMesh runs prog once over a fresh TCP mesh deployment and reports
// the result plus what the deployment wrote to the wire.
func runOverMesh(t *testing.T, subs []*bsp.Subgraph, prog bsp.Program, cfg bsp.Config) (*bsp.Result, transport.WireStats) {
	t.Helper()
	mesh, err := transport.NewTCPMeshDeployment(t.Context(), len(subs))
	if err != nil {
		t.Fatal(err)
	}
	res := runOverDeployment(t, subs, mesh, prog, cfg)
	return res, mesh.WireStats()
}

// TestWireV4EquivalenceAllApps is the wire acceptance matrix: every app ×
// widths {1, 8} × combine {off, on} runs over the in-memory deployment
// (the reference) and the TCP mesh at k = 3 (direct exchange only), 4 and
// 8 (radix 2 on small steps); values must be byte-identical, steps
// and message counts equal, and the wire bytes exactly the layout's.
func TestWireV4EquivalenceAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a TCP mesh per app/width/combine")
	}
	g := testGraphs(t)["powerlaw"]
	subsByK := map[int][]*bsp.Subgraph{}
	ks := []int{3, 4, 8}
	for _, k := range ks {
		a, err := core.New().Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		subsByK[k] = buildWeightedSubs(t, g, a)
	}
	for _, prog := range combinerApps() {
		for _, width := range []int{1, 8} {
			for _, combine := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d", appName(prog), width)
				t.Run(fmt.Sprintf("%s/combine=%t", name, combine), func(t *testing.T) {
					for _, k := range ks {
						t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
							checkWireEquivalence(t, subsByK[k], prog, bsp.Config{ValueWidth: width, AutoCombine: combine})
						})
					}
				})
			}
		}
	}
}

// checkWireEquivalence runs prog over Mem and over the TCP mesh and checks
// byte identity, the counts, and the exact wire bytes.
func checkWireEquivalence(t *testing.T, subs []*bsp.Subgraph, prog bsp.Program, cfg bsp.Config) {
	ref := runOverDeployment(t, subs, nil, prog, cfg)
	res, wire := runOverMesh(t, subs, prog, cfg)
	if !res.Values.EqualValues(ref.Values) {
		t.Fatal("TCP values differ from the in-memory reference (byte-identity violated)")
	}
	if res.Steps != ref.Steps {
		t.Fatalf("TCP run took %d steps, in-memory %d", res.Steps, ref.Steps)
	}
	counts := res.MessageCounts()
	if rc := ref.MessageCounts(); counts != rc {
		t.Fatalf("message counts differ across transports: tcp %+v, mem %+v", counts, rc)
	}
	if wire.Bytes == 0 || wire.Rows < counts.Wire {
		t.Fatalf("wire counters %+v did not count the %d wire rows", wire, counts.Wire)
	}
	// The bundles the exchange wrote: a 28-byte bundle header each, an
	// 8-byte header per block they carried, and a 4-byte id plus width
	// 8-byte values per row, relays counted once per hop.
	want := 28*wire.Bundles + 8*wire.Blocks + wire.Rows*int64(4+8*cfg.ValueWidth)
	t.Logf("wire: %d bundles, %d blocks, %d rows (%d delivered); %d B",
		wire.Bundles, wire.Blocks, wire.Rows, counts.Wire, wire.Bytes)
	if wire.Bytes != want {
		t.Fatalf("moved %d wire bytes, want exactly %d", wire.Bytes, want)
	}
}

// TestCombinerBeyondDenseCapacity is the silent-corruption pin on a
// sparse-id graph: the vertex-id space is far larger than any worker's
// local count, so the sender-side dense index gate falls back to the map,
// and the high-id hub's fan-in rows reach every inbox as one row per
// source. Values must be byte-identical with combining on or off and the
// counts exact: every wire row is delivered, none folded on the way.
func TestCombinerBeyondDenseCapacity(t *testing.T) {
	// A star whose hub sits at the top of a 50k-wide id space: every part
	// holds ~50 leaves + the hub replica, so 16x locals is far below the
	// global count and the hub id would overflow any dense index sized to
	// a local heuristic.
	const n, leaves, k = 50_000, 200, 4
	hub := graph.VertexID(n - 1)
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i * 7), Dst: hub}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(edges))
	for i := range parts {
		parts[i] = int32(i % k)
	}
	subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: k, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []bsp.Program{&apps.CC{}, &apps.PageRank{Iterations: 4}} {
		t.Run(prog.Name(), func(t *testing.T) {
			off, err := bsp.Run(t.Context(), subs, prog, bsp.Config{VerifyReplicaAgreement: true})
			if err != nil {
				t.Fatal(err)
			}
			on, err := bsp.Run(t.Context(), subs, prog, bsp.Config{VerifyReplicaAgreement: true, AutoCombine: true})
			if err != nil {
				t.Fatal(err)
			}
			if !on.Values.EqualValues(off.Values) {
				t.Fatal("combined values differ from uncombined beyond the dense-index capacity")
			}
			oc, fc := on.MessageCounts(), off.MessageCounts()
			if fc.Emitted != fc.Wire || fc.Wire != fc.Delivered {
				t.Fatalf("uncombined counts disagree: %+v", fc)
			}
			if oc.Emitted != fc.Emitted {
				t.Fatalf("combined run emitted %d rows, uncombined %d", oc.Emitted, fc.Emitted)
			}
			if oc != fc {
				t.Fatalf("unique-id batches must cross and arrive unfolded: combined %+v, uncombined %+v", oc, fc)
			}
		})
	}
}
