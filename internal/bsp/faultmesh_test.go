package bsp_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/transport"
)

// errInjected is what a failExchange or closeJob fault returns.
var errInjected = errors.New("injected fault")

// faultKind is what a fault does to its worker's exchange. The row kinds
// edit the first batch delivered from another source with the program rows
// they need (the vote row, last, is the engine's). The wire kinds, on TCP
// only, damage the first bundle of the step that reaches the worker from
// any peer.
type faultKind int

const (
	failExchange faultKind = iota // the exchange returns errInjected
	closeJob                      // the same, after closing the job as a crashed process does
	dropRow                       // the batch loses its first row
	dupRow                        // its first row arrives twice
	reorderRows                   // its first two rows trade places
	swapID                        // its first row names vertex fault.id instead
	delay                         // the exchange is slow, not dead
	flipBit                       // a bit of the bundle's CRC flips
	truncate                      // the stream ends inside the bundle's header
	numKinds
)

var kindNames = [numKinds]string{"fail", "close", "drop", "dup", "reorder", "swap-id", "delay", "flip", "truncate"}

// fault is one fault as a value: kind fires once into worker's exchange at
// step, a row kind at the first delivery from step on with a batch to edit
// (one with a row past those it edits: the vote row, last, is the
// engine's). The seam records where it fired: at, and src for a row kind.
type fault struct {
	kind         faultKind
	worker, step int
	id           uint32 // swapID's vertex
	fired        atomic.Bool
	at, src      int
}

func (f *fault) String() string {
	return fmt.Sprintf("%s worker %d step %d", kindNames[f.kind], f.worker, f.step)
}

func (f *fault) fire(step, src int) bool {
	if f.fired.Swap(true) {
		return false
	}
	f.at, f.src = step, src
	return true
}

// rows is how many rows a row kind edits.
func (f *fault) rows() int {
	if f.kind == dupRow || f.kind == reorderRows {
		return 2
	}
	return 1
}

// faultMesh is the one fault seam: a transport.Deployment whose jobs fire f.
type faultMesh struct {
	transport.Deployment
	f *fault
}

func (m faultMesh) OpenJob(job uint32, width int) ([]transport.Transport, error) {
	trs, err := m.Deployment.OpenJob(job, width)
	out := make([]transport.Transport, len(trs))
	for w, tr := range trs {
		out[w] = faultTransport{tr, m.f, trs}
	}
	return out, err
}

type faultTransport struct {
	transport.Transport
	f   *fault
	job []transport.Transport // every worker's transport of the job, for closeJob
}

func (t faultTransport) Exchange(worker, step int, out []*transport.MessageBatch, active bool) (transport.ExchangeResult, error) {
	f := t.f
	if worker == f.worker && step == f.step && (f.kind <= closeJob || f.kind == delay) && f.fire(step, -1) {
		switch f.kind {
		case delay:
			time.Sleep(20 * time.Millisecond)
		case closeJob:
			for _, tr := range t.job {
				_ = tr.Close()
			}
			fallthrough
		default:
			return transport.ExchangeResult{}, errInjected
		}
	}
	ex, err := t.Transport.Exchange(worker, step, out, active)
	if err != nil || worker != f.worker || step < f.step || f.kind < dropRow || f.kind > swapID {
		return ex, err
	}
	for src, b := range ex.In {
		if src == worker || b.Len() <= f.rows() || !f.fire(step, src) {
			continue
		}
		switch f.kind {
		case dropRow:
			b.IDs, b.Vals = b.IDs[1:], b.Vals[b.Width:]
		case dupRow:
			b.IDs, b.Vals = slices.Insert(b.IDs, 1, b.IDs[0]), slices.Insert(b.Vals, b.Width, slices.Clone(b.Row(0))...)
		case reorderRows:
			b.IDs[0], b.IDs[1] = b.IDs[1], b.IDs[0]
			r0, r1 := b.Row(0), b.Row(1)
			for j := range r0 {
				r0[j], r1[j] = r1[j], r0[j]
			}
		case swapID:
			b.IDs[0] = f.id
		}
		break
	}
	return ex, nil
}

// runFault runs prog over subs on a fresh mesh by name ("mem" or "tcp")
// that fires f, and returns the run's result and error.
func runFault(ctx context.Context, t *testing.T, mesh string, subs []*bsp.Subgraph, prog bsp.Program, cfg bsp.Config, f *fault) (*bsp.Result, error) {
	t.Helper()
	if mesh == "tcp" {
		return runOnMesh(ctx, subs, faultMesh{wireMesh(t, len(subs), f), f}, prog, cfg)
	}
	mem, err := transport.NewMemDeployment(len(subs))
	if err != nil {
		t.Fatal(err)
	}
	return runOnMesh(ctx, subs, faultMesh{mem, f}, prog, cfg)
}

// wireMesh wires a loopback mesh of k MeshNodes whose listeners damage
// what a wire kind names.
func wireMesh(t *testing.T, k int, f *fault) nodeMesh {
	addrs, lns := make([]string, k), make([]transport.Listener, k)
	for w := range k {
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		addrs[w], lns[w] = ln.Addr().String(), faultListener{ln, f, w}
	}
	nodes, errs := make(nodeMesh, k), make([]error, k)
	var wg sync.WaitGroup
	for w := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[w], errs[w] = transport.WireMeshNode(t.Context(), w, 0, addrs, lns[w], 0)
		}()
	}
	if wg.Wait(); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	return nodes
}

// nodeMesh is a transport.Deployment over MeshNodes wired by hand.
type nodeMesh []*transport.MeshNode

func (m nodeMesh) NumWorkers() int { return len(m) }

func (m nodeMesh) OpenJob(job uint32, width int) (trs []transport.Transport, err error) {
	trs = make([]transport.Transport, len(m))
	for w, n := range m {
		if trs[w], err = n.OpenJob(job, width); err != nil {
			return nil, err
		}
	}
	return trs, nil
}

func (m nodeMesh) Close() error {
	for _, n := range m {
		_ = n.Close()
	}
	return nil
}

type faultListener struct {
	transport.Listener
	f      *fault
	worker int
}

func (l faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, f: l.f, worker: l.worker}, nil
}

// faultConn is a connection a worker's listener accepted from a lower-id
// peer. It damages the first bundle of the fault's step that reaches
// f.worker over it: the one it reads if it is f.worker's, the one it
// writes if the peer is f.worker. Worker 0 accepts no connection, so only
// the writing side reaches it. Both sides go a piece at a time: the 8-byte
// hello (read) naming the peer, then per EBV6 bundle a 28-byte header (the
// step at byte 8, the body length at 20, the CRC at 24) and the body. The
// demux reads through a 64 KiB buffer, so a header fits every read; each
// bundle is written through a flushed 64 KiB buffer, so its header opens a
// write.
type faultConn struct {
	net.Conn
	f      *fault
	worker int     // the acceptor
	hello  [8]byte // the peer's id, then the mesh
	said   int     // hello bytes read
	left   int     // bytes of the current piece still to read; -1 once truncated
	wleft  int     // bytes of the current bundle still to write
	cut    bool    // the written stream ended inside a bundle
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.said < len(c.hello) {
		n, err := c.Conn.Read(p[:min(len(p), len(c.hello)-c.said)])
		c.said += copy(c.hello[c.said:], p[:n])
		return n, err
	}
	if c.worker != c.f.worker {
		return c.Conn.Read(p)
	}
	if c.left > 0 {
		n, err := c.Conn.Read(p[:min(len(p), c.left)])
		c.left -= n
		return n, err
	}
	if c.left < 0 {
		return 0, io.EOF // the node's own teardown closes the connection
	}
	h := p[:28]
	if _, err := io.ReadFull(c.Conn, h); err != nil {
		return 0, err
	}
	c.left = int(binary.LittleEndian.Uint32(h[20:]))
	if !c.damage(h) {
		return len(h), nil
	}
	if c.f.kind == truncate {
		c.left = -1
		return 12, nil
	}
	h[24] ^= 0x10
	return len(h), nil
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch {
	case c.cut:
		return len(p), nil // the peer saw the stream end
	case int(binary.LittleEndian.Uint32(c.hello[:])) != c.f.worker:
		return c.Conn.Write(p)
	case c.wleft > 0:
		c.wleft -= len(p)
		return c.Conn.Write(p)
	}
	c.wleft = 28 + int(binary.LittleEndian.Uint32(p[20:])) - len(p)
	if !c.damage(p) {
		return c.Conn.Write(p)
	}
	if c.f.kind == truncate {
		c.cut = true
		_, err := c.Conn.Write(p[:12])
		_ = c.Conn.(*net.TCPConn).CloseWrite()
		return len(p), err
	}
	p = slices.Clone(p)
	p[24] ^= 0x10
	return c.Conn.Write(p)
}

// damage reports whether the bundle with header h is the one a wire kind
// fires on.
func (c *faultConn) damage(h []byte) bool {
	return c.f.kind >= flipBit && int(binary.LittleEndian.Uint32(h[8:])) == c.f.step && c.f.fire(c.f.step, -1)
}
