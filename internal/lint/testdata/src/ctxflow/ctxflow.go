// Package ctxflow is the ctxflow analyzer's fixture: root-context mints
// and uncancellable exported loops.
package ctxflow

import (
	"context"
	"net"
	"sync/atomic"
)

func work(ctx context.Context) error { _ = ctx; return nil }

func mintsRoot() {
	ctx := context.Background() // want "mints a root context"
	_ = ctx
}

func mintsTODO() error {
	return work(context.TODO()) // want "mints a root context"
}

// NilFallback is the one sanctioned Background idiom: defaulting a nil
// caller context at an entry point.
func NilFallback(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return work(ctx)
}

// notSuppressed: no directive suppresses a diagnostic.
func notSuppressed() {
	ctx := context.Background() //ebv:nolint ctxflow a reason suppresses nothing
	// want-1 "mints a root context"
	_ = ctx
}

// AddSum is a CAS retry written as a loop with a condition: a bounded
// retry, not an unconditional loop.
func AddSum(sum *atomic.Uint64, v uint64) {
	for old := sum.Load(); !sum.CompareAndSwap(old, old+v); old = sum.Load() {
	}
}

func Pump(ch chan int) { // want "takes no context"
	for {
		if _, ok := <-ch; !ok {
			return
		}
	}
}

func Drain(ch chan int, done chan struct{}) int { // want "takes no context"
	n := 0
	for i := 0; i < 1024; i++ {
		select {
		case <-ch:
			n++
		case <-done:
			return n
		}
	}
	return n
}

func Serve(l *net.TCPListener) error { // want "takes no context"
	for l != nil {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		_ = c.Close()
	}
	return nil
}

// PumpCtx takes the caller's context: cancellable, clean.
func PumpCtx(ctx context.Context, ch chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-ch:
		}
	}
}

// drain is unexported: internal loops are the exported caller's problem.
func drain(ch chan int) {
	for range ch {
	}
}

// pumper holds its lifecycle context, derived from the caller's at
// construction — the long-lived-object pattern.
type pumper struct {
	ctx context.Context
	ch  chan int
}

func (p *pumper) Run() {
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.ch:
		}
	}
}

// Bounded loops without selects are not flagged.
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
