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

// WireMeshNode wires one worker's endpoint of a k = len(addrs) worker TCP
// mesh: addrs[i] is where worker i listens. It accepts a connection from
// every lower-id peer and dials every higher-id peer, retrying dials with
// exponential backoff until the peers come up, so workers may start in any
// order; dialTimeout (default 30s) bounds the whole wiring and canceling
// ctx aborts it. Every mesh — the loopback deployment, a cluster agent's
// per-attempt data plane — is wired here.
//
// ln, when non-nil, is the already-bound listener for addrs[worker] (the
// cluster agent binds an ephemeral port first, to report its address
// before the peer list exists); nil binds addrs[worker] here. Either way
// the listener is closed before returning: its only purpose is wiring.
func WireMeshNode(ctx context.Context, worker int, addrs []string, ln net.Listener, dialTimeout time.Duration) (*MeshNode, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ln != nil {
		defer ln.Close()
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
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addrs[worker]); err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", addrs[worker], err)
		}
		defer ln.Close()
	}

	// wctx ends the wiring: the caller canceled, the deadline passed, or
	// one side failed (the first cause wins and is what the caller sees).
	// Everything below watches it — dials through DialBackoff, the blocked
	// Accept through the listener, a hello read through its connection —
	// so no goroutine or unslotted connection outlives this call.
	deadline := time.Now().Add(dialTimeout)
	wctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	wctx, stopTimer := context.WithDeadlineCause(wctx, deadline,
		fmt.Errorf("timed out after %v waiting for peers", dialTimeout))
	defer stopTimer()
	stopLn := context.AfterFunc(wctx, func() { _ = ln.Close() })
	defer stopLn()

	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards conns
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
			// Identify ourselves so the acceptor can slot the conn.
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(worker))
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
		for i := 0; i < worker; i++ {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("accept: %w", err))
				return
			}
			// A dialer that connects and then says nothing must not pin
			// this goroutine and its socket: the end of the wiring —
			// deadline included — closes the connection under the read.
			stop := context.AfterFunc(wctx, func() { _ = conn.Close() })
			var hello [4]byte
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
			if peer < 0 || peer >= worker {
				_ = conn.Close()
				fail(fmt.Errorf("bad hello id %d", peer))
				return
			}
			slot(peer, conn)
		}
	}()
	wg.Wait()

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
