package bsp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
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

	// The links come from the coordinator's copy, as in an open frame.
	links := bsp.ComponentLinks(subs)
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
			results[w], errs[w] = bsp.RunWorker(t.Context(), reloaded[w], links[w], &apps.CC{}, tr, bsp.Config{})
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
	if _, err := bsp.RunWorker(t.Context(), subs[0], nil, &apps.CC{}, mem, bsp.Config{}); err == nil {
		t.Fatal("mismatched transport accepted")
	}
	if _, err := bsp.RunWorker(t.Context(), nil, nil, &apps.CC{}, mem, bsp.Config{}); err == nil {
		t.Fatal("nil subgraph accepted")
	}
}

// TestRunWorkerRefusesMalformedLinks: a worker's share of the link table
// comes from another process, so RunWorker checks it against the subgraph
// before running, and each refusal names the worker. Each table is worker
// 1's first link vertex, or a vertex beside it, broken one way.
func TestRunWorkerRefusesMalformedLinks(t *testing.T) {
	const k, w = 3, 1
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), k)
	sub, share := subs[w], bsp.ComponentLinks(subs)[w]
	l0, n := share.Locals[0], int32(sub.NumLocalVertices())
	lone := slices.IndexFunc(sub.GlobalIDs, func(gid graph.VertexID) bool {
		l, _ := sub.LocalOf(gid)
		return len(sub.PeersOf(l)) == 0
	})
	if lone < 0 {
		t.Fatal("worker 1 replicates every vertex")
	}
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second) // a share let through runs alone, and stalls
	defer cancel()
	trs := memJob(t, k)
	for name, bad := range map[string][]int32{
		"unreplicated vertex":     {int32(lone)},
		"vertices out of order":   {l0, l0},
		"vertex past local range": {n},
		"negative vertex":         {-1},
	} {
		_, err := bsp.RunWorker(ctx, sub, &bsp.Links{Locals: bad}, &apps.CC{}, trs[w], bsp.Config{})
		if err == nil || !strings.HasPrefix(err.Error(), "bsp: worker 1: component links: ") {
			t.Errorf("%s: RunWorker returned %v, want a refusal naming worker 1", name, err)
		}
	}
}

// TestRunWorkerCCWithoutLinks: CC under RunWorker handed no links fails at
// step 0 on a worker with a replicated vertex, with an error naming the
// worker, instead of falling back to another table. A worker that does not
// fail itself fails as its peers close.
func TestRunWorkerCCWithoutLinks(t *testing.T) {
	const k = 3
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), k)
	trs := memJob(t, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = bsp.RunWorker(t.Context(), sub, nil, &apps.CC{}, trs[w], bsp.Config{})
		}()
	}
	wg.Wait()
	sent := 0
	for w, err := range errs {
		switch {
		case err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("bsp: worker %d: ", w)):
			t.Errorf("worker %d: RunWorker returned %v, want an error naming the worker", w, err)
		case strings.HasSuffix(err.Error(), "superstep 0: bsp: a replicated component to send, and no component links to send it along"):
			sent++
		case !errors.Is(err, transport.ErrClosed):
			t.Errorf("worker %d: %v, want the missing links or its peers' close", w, err)
		}
	}
	if sent == 0 {
		t.Error("no worker failed at step 0 for want of links")
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
