// Package transport moves replica-synchronization message batches between
// BSP workers. Two implementations share one collective-exchange
// interface: an in-memory router (MemDeployment, the default for
// experiments — the paper's platform-independent metric is the message
// *count*, which is identical on any transport) and a real TCP transport (MeshNode:
// job-tagged, CRC-checked bundles of fixed-width columns over a full mesh
// of loopback or remote connections) on which the engine runs distributed.
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
