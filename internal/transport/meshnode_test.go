package transport

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/graph"
)

// listenLoopback binds k ephemeral loopback listeners and returns them
// with their addresses — the address list a multi-process mesh shares.
func listenLoopback(t *testing.T, k int) ([]Listener, []string) {
	t.Helper()
	lns := make([]Listener, k)
	addrs := make([]string, k)
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

// wireLoopbackNodes wires k mesh nodes from a shared address list, one
// WireMeshNode call per worker, the way k separate processes would; the
// nodes close with the test.
func wireLoopbackNodes(t *testing.T, k int) []*MeshNode {
	t.Helper()
	lns, addrs := listenLoopback(t, k)
	return wireMesh(t, 1, lns, addrs)
}

// wireMesh wires one mesh through the given listeners, concurrently; the
// nodes close with the test.
func wireMesh(t *testing.T, mesh uint32, lns []Listener, addrs []string) []*MeshNode {
	t.Helper()
	nodes := make([]*MeshNode, len(lns))
	errs := make([]error, len(lns))
	var wg sync.WaitGroup
	for w := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[w], errs[w] = WireMeshNode(t.Context(), w, mesh, addrs, lns[w], 15*time.Second)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("mesh %d: wire worker %d: %v", mesh, w, err)
		}
		t.Cleanup(func() { _ = nodes[w].Close() })
	}
	return nodes
}

// exchangeOnce runs one step of a fresh job on every node and checks
// that every worker received every other worker's row.
func exchangeOnce(t *testing.T, nodes []*MeshNode, job uint32) {
	t.Helper()
	k := len(nodes)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = func() error {
				tr, err := n.OpenJob(job, 1)
				if err != nil {
					return err
				}
				defer tr.Close()
				out := make([]*MessageBatch, k)
				for dst := range out {
					out[dst] = jobBatch(1, graph.VertexID(w), float64(100*w+dst))
				}
				res, err := tr.Exchange(w, 0, out, true)
				if err != nil {
					return err
				}
				for src, in := range res.In {
					if in.Len() != 1 || in.Scalar(0) != float64(100*src+w) {
						return fmt.Errorf("from %d: got %v / %v", src, in.IDs, in.Vals)
					}
					RecycleBatch(in)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("job %d, worker %d: %v", job, w, err)
		}
	}
}

// TestMeshNodePeerLossFailsPendingExchange: a peer that leaves fails the
// node, and the pending Exchange fails loudly, naming the peer — under the
// direct exchange at k = 2 and under the radix-2 schedule at k = 4 and 8,
// where worker 0 is worker 1's first-round source.
func TestMeshNodePeerLossFailsPendingExchange(t *testing.T) {
	for _, tc := range []struct{ k, radix int }{{2, 2}, {4, 2}, {8, 2}} {
		t.Run(fmt.Sprintf("k%d/radix%d", tc.k, tc.radix), func(t *testing.T) {
			nodes := wireLoopbackNodes(t, tc.k)
			nodes[1].radix = tc.radix
			tr, err := nodes[1].OpenJob(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			_ = nodes[0].Close() // worker 0 leaves without ever sending step 0
			// Wait for the demux to see the departure, so the Exchange's own
			// write to the closed peer cannot turn the clean end into a reset
			// first.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				nodes[1].mu.Lock()
				failed := nodes[1].failed
				nodes[1].mu.Unlock()
				if failed != nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("worker 1 never observed worker 0 leaving")
				}
			}
			_, err = tr.Exchange(1, 0, nil, true)
			if err == nil || !strings.Contains(err.Error(), "worker 0 closed its connection") {
				t.Fatalf("exchange after the peer left: err = %v, want an error naming worker 0's departure", err)
			}
		})
	}
}

// TestWireMeshNodeSilentDialer: a client that connects to the data port
// and never sends its hello must not pin the wiring past its deadline —
// the wiring fails with a loud timeout, the silent connection is closed,
// and no goroutine is left behind.
func TestWireMeshNodeSilentDialer(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	lns, addrs := listenLoopback(t, 2)
	client, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	_, err = WireMeshNode(context.Background(), 1, 1, addrs, lns[1], 300*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("wiring against a silent dialer: err = %v, want a loud timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("wiring took %v to give up on a 300ms budget", elapsed)
	}
	// The acceptor closed the silent connection: the client reads EOF.
	_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("silent connection still open after the wiring ended: read err = %v", err)
	}
	// The listener is the caller's: the timed-out wiring left it open and
	// without a deadline.
	late, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	_ = late.Close()
	if conn, err := lns[1].Accept(); err != nil {
		t.Fatalf("listener no longer accepts after the timed-out wiring: %v", err)
	} else {
		_ = conn.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after a timed-out wiring", before, runtime.NumGoroutine())
}

// TestWireMeshNodeReusesListener: one listener per worker serves one mesh
// after another, and a dial into mesh 1 still waiting in a listener's
// backlog is skipped by mesh 2's wiring rather than taken for a peer.
func TestWireMeshNodeReusesListener(t *testing.T) {
	const k = 3
	lns, addrs := listenLoopback(t, k)
	exchangeOnce(t, wireMesh(t, 1, lns, addrs), 1)

	// A mesh-1 hello from worker 0, queued at worker 2 ahead of mesh 2.
	stale, err := net.Dial("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if _, err := stale.Write([]byte{0, 0, 0, 0, 1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	exchangeOnce(t, wireMesh(t, 2, lns, addrs), 1)

	// The stale connection was closed, not slotted.
	_ = stale.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := stale.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("stale mesh-1 connection still open after mesh 2 wired: read err = %v", err)
	}
}
