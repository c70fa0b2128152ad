package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestWireMeshNodeCancelWhileWaiting: a worker waiting for peers that
// never come up must abort on cancellation well before its dial timeout.
func TestWireMeshNodeCancelWhileWaiting(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Worker 1 of 2: it must accept a connection from worker 0,
		// which never arrives.
		_, err := WireMeshNode(ctx, 1, 1, addrs, lns[1], time.Minute)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WireMeshNode ignored cancellation (would have waited out the full minute)")
	}
}

// TestWireMeshNodePreCanceled fails fast without accepting or dialing.
func TestWireMeshNodePreCanceled(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := WireMeshNode(ctx, 1, 1, addrs, lns[1], time.Minute)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-canceled construction took %v", elapsed)
	}
}
