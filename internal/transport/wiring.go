package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Listener is what a mesh is wired through: a net.Listener whose Accept a
// deadline can stop (*net.TCPListener is one), so that ending a wiring
// leaves the listener open for the next.
type Listener interface {
	net.Listener
	SetDeadline(t time.Time) error
}

// WireMeshNode wires one worker's endpoint of a k = len(addrs) worker TCP
// mesh: addrs[i] is where worker i listens, and ln is this worker's bound
// listener at addrs[worker] (unused at k = 1). It accepts a connection
// from every lower-id peer and dials every higher-id peer, retrying dials
// with exponential backoff until the peers come up, so workers may start
// in any order; dialTimeout (default 30s) bounds the whole wiring and
// canceling ctx aborts it. Every mesh — the loopback deployment, a cluster
// agent's data plane — is wired here.
//
// mesh numbers the wiring: every dialer's hello names it, and a backlog
// connection that names another mesh (a dial left over from an earlier
// wiring through the same listener) is closed and skipped. The listener
// stays the caller's and stays open, so one listener serves every mesh a
// long-lived worker is wired into.
func WireMeshNode(ctx context.Context, worker int, mesh uint32, addrs []string, ln Listener, dialTimeout time.Duration) (*MeshNode, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := len(addrs)
	if worker < 0 || worker >= k {
		return nil, fmt.Errorf("transport: worker %d out of range [0,%d)", worker, k)
	}
	if k > maxWireWorkers {
		return nil, fmt.Errorf("transport: %d workers exceed the wire's %d", k, maxWireWorkers)
	}
	if dialTimeout <= 0 {
		dialTimeout = 30 * time.Second
	}
	conns := make([]net.Conn, k)
	if k == 1 {
		return newMeshNode(worker, conns), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// wctx ends the wiring: the caller canceled, the deadline passed, or
	// one side failed (the first cause wins and is what the caller sees).
	// Everything below watches it — dials through DialBackoff, the blocked
	// Accept through a listener deadline, a hello read through its
	// connection — so no goroutine or unslotted connection outlives this
	// call.
	deadline := time.Now().Add(dialTimeout)
	wctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	wctx, stopTimer := context.WithDeadlineCause(wctx, deadline,
		fmt.Errorf("timed out after %v waiting for peers", dialTimeout))
	defer stopTimer()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards conns
		accepted = make(chan struct{})
	)
	slot := func(peer int, conn net.Conn) {
		mu.Lock()
		defer mu.Unlock()
		if conns[peer] != nil {
			_ = conn.Close()
			fail(fmt.Errorf("peer %d wired twice", peer))
			return
		}
		conns[peer] = conn
	}
	for peer := worker + 1; peer < k; peer++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := DialBackoff(wctx, addrs[peer], deadline)
			if err != nil {
				fail(fmt.Errorf("dial peer %d (%s): %w", peer, addrs[peer], err))
				return
			}
			// Identify ourselves and the mesh so the acceptor can slot
			// the conn.
			var hello [8]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(worker))
			binary.LittleEndian.PutUint32(hello[4:], mesh)
			if _, err := conn.Write(hello[:]); err != nil {
				_ = conn.Close()
				fail(fmt.Errorf("hello to %d: %w", peer, err))
				return
			}
			slot(peer, conn)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(accepted)
		for got := 0; got < worker; {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("accept: %w", err))
				return
			}
			// A dialer that connects and then says nothing must not pin
			// this goroutine and its socket: the end of the wiring —
			// deadline included — closes the connection under the read.
			stop := context.AfterFunc(wctx, func() { _ = conn.Close() })
			var hello [8]byte
			_, err = io.ReadFull(conn, hello[:])
			if !stop() && err == nil {
				err = context.Cause(wctx)
			}
			if err != nil {
				_ = conn.Close()
				fail(fmt.Errorf("read hello: %w", err))
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if binary.LittleEndian.Uint32(hello[4:]) != mesh {
				_ = conn.Close() // a dial into an earlier (or later) mesh
				continue
			}
			if peer < 0 || peer >= worker {
				_ = conn.Close()
				fail(fmt.Errorf("bad hello id %d", peer))
				return
			}
			slot(peer, conn)
			got++
		}
	}()
	// The end of the wiring stops a blocked Accept by deadline, lifted
	// again once the acceptor has returned.
	select {
	case <-wctx.Done():
		_ = ln.SetDeadline(time.Unix(1, 0))
	case <-accepted:
	}
	wg.Wait()
	_ = ln.SetDeadline(time.Time{})

	if cause := context.Cause(wctx); cause != nil {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transport: wiring worker %d: %w", worker, cause)
	}
	return newMeshNode(worker, conns), nil
}

// DialBackoff dials addr with retries under exponential backoff (10ms
// doubling to a 1s ceiling) until the dial succeeds, ctx is canceled or
// deadline passes. Peers racing to bind their listeners converge fast (the
// early retries are cheap) without hammering a peer that is minutes away.
func DialBackoff(ctx context.Context, addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	const maxBackoff = time.Second
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		attempt := time.Second
		if remaining < attempt {
			attempt = remaining
		}
		dialCtx, cancel := context.WithTimeout(ctx, attempt)
		conn, err := (&net.Dialer{}).DialContext(dialCtx, "tcp", addr)
		cancel()
		if err == nil {
			return conn, nil
		}
		lastErr = err
		sleep := backoff
		if rem := time.Until(deadline); sleep > rem {
			sleep = rem
		}
		if sleep > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(sleep):
			}
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	if lastErr == nil {
		lastErr = errors.New("deadline passed")
	}
	return nil, lastErr
}
