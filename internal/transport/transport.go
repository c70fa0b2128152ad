// Package transport moves replica-synchronization message batches between
// BSP workers. Two implementations share one collective-exchange
// interface: an in-memory router (the default for experiments — the
// paper's platform-independent metric is the message *count*, which is
// identical on any transport) and a real TCP transport (MeshNode:
// job-tagged, compressed, CRC-checked frames over a full mesh of loopback
// or remote connections) on which the engine runs distributed.
//
// The message plane is columnar: a MessageBatch carries the vertex-id and
// value columns of every message for one destination, with a configurable
// per-message value width (see MessageBatch). Batches are pooled
// (GetBatch/RecycleBatch); ownership moves with them — a batch handed to
// Exchange belongs to the transport afterwards, and a batch returned by
// Exchange belongs to the caller, who recycles it after consuming it.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ExchangeResult reports what a collective exchange delivered.
type ExchangeResult struct {
	// In holds the batches delivered to the calling worker, indexed by
	// source worker (nil = no messages from that worker; the self slot is
	// the worker's own out[self] batch, delivered without touching the
	// network). The caller owns the batches and recycles them after
	// consuming their contents.
	In []*MessageBatch
	// AnyActive is the OR of every worker's active flag for this step; it
	// is identical at all workers, giving a consistent halting decision.
	AnyActive bool
	// Wait is the time the caller spent blocked waiting for peers (the
	// synchronization stage of §IV-B); callers subtract it from the
	// wall-clock exchange time to obtain pure communication time.
	Wait time.Duration
}

// Transport is a collective, step-synchronized message exchange among a
// fixed set of workers. All workers must call Exchange once per step with
// the same step number; the call blocks until the step's exchange
// completes everywhere.
type Transport interface {
	// NumWorkers returns the number of participating workers.
	NumWorkers() int
	// Exchange sends out[i] to worker i (out may be shorter than the
	// worker count; nil entries mean no messages) and returns everything
	// addressed to the calling worker. The transport takes ownership of
	// the batches in out: they must be distinct (no batch may appear in
	// two slots) and must not be used after the call.
	Exchange(worker, step int, out []*MessageBatch, active bool) (ExchangeResult, error)
	// Close releases transport resources. Exchange must not be called
	// after Close.
	Close() error
}

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("transport: closed")

// Mem is the in-memory Transport: a k×k mailbox matrix with a cyclic
// barrier. It is allocation-light and deterministic, and is the transport
// used by the benchmark harness. Batches cross worker goroutines by
// pointer — no copy, no encode.
type Mem struct {
	k       int
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	phase   int // generation counter of the barrier
	closed  bool
	mailbox [][]*MessageBatch // mailbox[src][dst]
	actives []bool
	anyAct  bool
}

var _ Transport = (*Mem)(nil)

// NewMem returns an in-memory transport for k workers.
func NewMem(k int) (*Mem, error) {
	if k < 1 {
		return nil, fmt.Errorf("transport: need at least 1 worker, got %d", k)
	}
	m := &Mem{
		k:       k,
		mailbox: make([][]*MessageBatch, k),
		actives: make([]bool, k),
	}
	for i := range m.mailbox {
		m.mailbox[i] = make([]*MessageBatch, k)
	}
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// NumWorkers implements Transport.
func (m *Mem) NumWorkers() int { return m.k }

// Exchange implements Transport.
func (m *Mem) Exchange(worker, step int, out []*MessageBatch, active bool) (ExchangeResult, error) {
	if worker < 0 || worker >= m.k {
		return ExchangeResult{}, fmt.Errorf("transport: worker %d out of range [0,%d)", worker, m.k)
	}
	var res ExchangeResult

	// Deposit phase: publish outgoing batches and the active flag.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ExchangeResult{}, ErrClosed
	}
	for dst := 0; dst < m.k && dst < len(out); dst++ {
		m.mailbox[worker][dst] = out[dst]
	}
	m.actives[worker] = active
	waitStart := time.Now()
	m.arrived++
	if m.arrived == m.k {
		// Last arriver computes the global active flag and releases.
		m.arrived = 0
		any := false
		for _, a := range m.actives {
			if a {
				any = true
				break
			}
		}
		m.anyAct = any
		m.phase++
		m.cond.Broadcast()
	} else {
		gen := m.phase
		for m.phase == gen && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return ExchangeResult{}, ErrClosed
		}
	}
	res.Wait = time.Since(waitStart)
	res.AnyActive = m.anyAct

	// Collect phase: read own column. Safe without a second barrier
	// because slots written next step are guarded by the barrier below.
	res.In = make([]*MessageBatch, m.k)
	for src := 0; src < m.k; src++ {
		res.In[src] = m.mailbox[src][worker]
		m.mailbox[src][worker] = nil
	}
	// Second barrier: nobody starts the next deposit phase until everyone
	// finished collecting.
	t2 := time.Now()
	m.arrived++
	if m.arrived == m.k {
		m.arrived = 0
		m.phase++
		m.cond.Broadcast()
	} else {
		gen := m.phase
		for m.phase == gen && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return ExchangeResult{}, ErrClosed
		}
	}
	res.Wait += time.Since(t2)
	m.mu.Unlock()
	return res, nil
}

// Close implements Transport. Workers blocked in Exchange return ErrClosed.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
	return nil
}
