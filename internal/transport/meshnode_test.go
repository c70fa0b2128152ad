package transport

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebv/internal/graph"
)

// listenLoopback binds k ephemeral loopback listeners and returns them
// with their addresses — the address list a multi-process mesh shares.
func listenLoopback(t *testing.T, k int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
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
	nodes := make([]*MeshNode, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[w], errs[w] = WireMeshNode(t.Context(), w, addrs, lns[w], 15*time.Second)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("wire worker %d: %v", w, err)
		}
		t.Cleanup(func() { _ = nodes[w].Close() })
	}
	return nodes
}

// heldConn delays every Read's return while armed, holding bytes that
// already arrived back from the demux until release closes.
type heldConn struct {
	net.Conn
	armed   *atomic.Bool
	release <-chan struct{}
}

func (c heldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.armed.Load() {
		<-c.release
	}
	return n, err
}

// TestMeshNodeEarlyLeaver: a worker that finishes its last superstep and
// closes its node must not fail a slower peer that has not consumed the
// final bundles yet. The nodes are wired from an address list the way
// separate processes would be; the last worker's demux is held back during
// the last step until worker 0 has already closed its node, so it sees
// worker 0's final bundle and its departure back to back. Every worker must
// finish with the same, complete deliveries and no error, under the direct
// exchange and under the radix-2 schedule, where worker 0's last bundles
// also carry blocks it relays.
func TestMeshNodeEarlyLeaver(t *testing.T) {
	for _, tc := range []struct{ k, radix int }{{4, 4}, {4, 2}, {8, 2}} {
		t.Run(fmt.Sprintf("k%d/radix%d", tc.k, tc.radix), func(t *testing.T) {
			testEarlyLeaver(t, tc.k, tc.radix)
		})
	}
}

func testEarlyLeaver(t *testing.T, k, radix int) {
	const steps = 3
	slow := k - 1
	nodes := wireLoopbackNodes(t, k)
	var wg sync.WaitGroup

	var armed atomic.Bool
	release := make(chan struct{})
	for peer, c := range nodes[slow].conns {
		if c != nil { // the demux readers start with OpenJob, below
			nodes[slow].conns[peer] = heldConn{Conn: c, armed: &armed, release: release}
		}
	}
	for _, n := range nodes {
		n.radix = radix
	}

	var lastStep sync.WaitGroup // everyone finished step steps-2, nobody sent steps-1
	lastStep.Add(k)
	errs := make([]error, k)
	for w := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = func() error {
				tr, err := nodes[w].OpenJob(1, 1)
				if err != nil {
					return err
				}
				for step := 0; step < steps; step++ {
					if step == steps-1 {
						if w == slow {
							armed.Store(true)
						}
						lastStep.Done()
						lastStep.Wait()
					}
					out := make([]*MessageBatch, k)
					for dst := range out {
						out[dst] = jobBatch(1, graph.VertexID(step), float64(100*w+dst))
					}
					res, err := tr.Exchange(w, step, out, true)
					if err != nil {
						return fmt.Errorf("step %d: %w", step, err)
					}
					for src, in := range res.In {
						if in.Len() != 1 || in.IDs[0] != graph.VertexID(step) || in.Scalar(0) != float64(100*src+w) {
							return fmt.Errorf("step %d from %d: got %v / %v", step, src, in.IDs, in.Vals)
						}
						RecycleBatch(in)
					}
				}
				return nil
			}()
			if w == 0 {
				_ = nodes[0].Close() // leave at once, like a process exiting
				close(release)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// TestMeshNodePeerLossFailsPendingExchange is the other half of the
// departure rule: a peer that leaves while its bundle is still needed
// fails that Exchange loudly, naming the peer — under the direct exchange
// at k = 2 and under the radix-2 schedule at k = 4 and 8, where worker 0
// is worker 1's first-round source.
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
				gone := nodes[1].gone[0]
				nodes[1].mu.Unlock()
				if gone {
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
	_, err = WireMeshNode(context.Background(), 1, addrs, lns[1], 300*time.Millisecond)
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
