package bsp_test

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/transport"
)

func TestSubgraphSerializationRoundTrip(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 3)
	for _, sub := range subs {
		var buf bytes.Buffer
		if err := bsp.WriteSubgraph(&buf, sub); err != nil {
			t.Fatal(err)
		}
		got, err := bsp.ReadSubgraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Part != sub.Part || got.NumWorkers != sub.NumWorkers {
			t.Fatalf("header mismatch: %d/%d", got.Part, got.NumWorkers)
		}
		if got.NumLocalVertices() != sub.NumLocalVertices() ||
			len(got.Edges) != len(sub.Edges) {
			t.Fatalf("size mismatch")
		}
		for local, gid := range sub.GlobalIDs {
			l2, ok := got.LocalOf(gid)
			if !ok || int(l2) != local {
				t.Fatalf("local index not rebuilt for vertex %d", gid)
			}
			if !slices.Equal(got.PeersOf(int32(local)), sub.PeersOf(int32(local))) {
				t.Fatalf("replica peers lost for vertex %d", gid)
			}
		}
		// The out-adjacency is built on first use from the shipped edges.
		if got.Out().NumEdges() != sub.Out().NumEdges() {
			t.Fatalf("out CSR mismatch")
		}
	}
}

func TestReadSubgraphRejectsGarbage(t *testing.T) {
	if _, err := bsp.ReadSubgraph(bytes.NewReader([]byte("not a subgraph"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// loopbackListeners binds n loopback listeners, closed with the test, and
// returns them with their addresses.
func loopbackListeners(t *testing.T, n int) ([]transport.Listener, []string) {
	t.Helper()
	lns := make([]transport.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// TestMultiProcessStyleRun exercises a cluster agent's data path in-process:
// subgraphs serialized and reloaded, one mesh node per worker wired from
// the shared address list, each worker driven independently by
// RunWorker — exactly what separate OS processes would do. The nodes
// outlive the job, as an agent's do: a node closed while a peer is still
// collecting the last step would fail that peer.
func TestMultiProcessStyleRun(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	subs := buildSubs(t, g, core.New(), k)

	// Serialize + reload (the shard bytes of the coordinator's assign frame).
	reloaded := make([]*bsp.Subgraph, k)
	for i, sub := range subs {
		var buf bytes.Buffer
		if err := bsp.WriteSubgraph(&buf, sub); err != nil {
			t.Fatal(err)
		}
		var err error
		reloaded[i], err = bsp.ReadSubgraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
	}

	lns, addrs := loopbackListeners(t, k)
	results := make([]*bsp.WorkerResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node, err := transport.WireMeshNode(t.Context(), w, 1, addrs, lns[w], 15*time.Second)
			if err != nil {
				errs[w] = fmt.Errorf("transport: %w", err)
				return
			}
			t.Cleanup(func() { _ = node.Close() })
			tr, err := node.OpenJob(1, 1)
			if err != nil {
				errs[w] = fmt.Errorf("transport: %w", err)
				return
			}
			results[w], errs[w] = bsp.RunWorker(t.Context(), reloaded[w], &apps.CC{}, tr, bsp.Config{})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	want := apps.SequentialCC(g)
	for w := 0; w < k; w++ {
		for local, gid := range reloaded[w].GlobalIDs {
			if got := results[w].Values.Scalar(local); got != want[gid] {
				t.Fatalf("worker %d: CC(%d) = %g, want %g", w, gid, got, want[gid])
			}
		}
		if results[w].Steps == 0 {
			t.Fatalf("worker %d ran 0 steps", w)
		}
	}
}

func TestRunWorkerValidation(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 2)
	mem := memJob(t, 3)[0] // wrong worker count
	if _, err := bsp.RunWorker(t.Context(), subs[0], &apps.CC{}, mem, bsp.Config{}); err == nil {
		t.Fatal("mismatched transport accepted")
	}
	if _, err := bsp.RunWorker(t.Context(), nil, &apps.CC{}, mem, bsp.Config{}); err == nil {
		t.Fatal("nil subgraph accepted")
	}
}

func TestWireMeshNodeValidation(t *testing.T) {
	if _, err := transport.WireMeshNode(t.Context(), 5, 1, []string{"a", "b"}, nil, time.Second); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	// Single worker needs no peers at all.
	node, err := transport.WireMeshNode(t.Context(), 0, 1, []string{"unused"}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	tr, err := node.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumWorkers() != 1 {
		t.Fatal("wrong worker count")
	}
}

func TestWireMeshNodeTimesOutWithoutPeers(t *testing.T) {
	lns, addrs := loopbackListeners(t, 2)
	start := time.Now()
	_, err := transport.WireMeshNode(t.Context(), 1, 1, addrs, lns[1], 500*time.Millisecond)
	if err == nil {
		t.Fatal("lonely worker connected to nobody")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("timeout took far too long")
	}
}
