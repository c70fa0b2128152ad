// Wire equivalence: the CRC-sealed bundle wire of fixed-width columns and
// its radix-2 relays must be invisible to results — every app produces,
// over the TCP mesh, a ValueMatrix byte-identical to the in-memory
// deployment's — and the bytes it moves are exactly its layout's.
package bsp_test

import (
	"context"
	"fmt"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
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
// widths {1, 8} runs over the in-memory deployment (the reference) and the
// TCP mesh at k = 3 (direct exchange only), 4 and 8 (radix 2 on small
// steps); values must be byte-identical, steps and message counts equal,
// and the wire bytes exactly the layout's, and CC takes at most three
// supersteps. The combine axis sets
// Config.AutoCombine, which the engine ignores and benchmark/ still sets
// (ROADMAP item 1(b)): both cells must move exactly the same bytes.
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
	for _, prog := range evaluationApps() {
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
	if prog.Name() == "CC" && res.Steps > 3 {
		t.Fatalf("CC took %d supersteps, at most 3", res.Steps)
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
