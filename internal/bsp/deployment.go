package bsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ebv/internal/graph"
	"ebv/internal/transport"
)

// ErrDeploymentClosed reports a Run on a closed Deployment.
var ErrDeploymentClosed = errors.New("bsp: deployment closed")

// Deployment is the prepare-once/serve-many execution engine: it binds a
// set of built subgraphs to a persistent transport deployment and serves
// BSP jobs over them. It opens a job-scoped transport view per Run, so
// concurrent Run calls — each with its own program, value width and step
// cap — share the subgraphs and the mesh without their message batches ever
// crossing. A caller with a custom transport mesh passes it to
// NewDeployment; the one-shot Run function is a Deployment with one job.
//
// Run is safe for concurrent use. Close tears the transport deployment
// down; jobs blocked in a collective exchange are released and fail with
// ErrDeploymentClosed.
type Deployment struct {
	k       int
	mesh    transport.Deployment
	nextJob atomic.Uint32

	mu     sync.Mutex
	subs   []*Subgraph     // current epoch's snapshot; replaced wholesale by Swap
	links  func() []*Links // ComponentLinks(subs), built by the epoch's first CC job
	epoch  uint64
	closed bool
}

// NewDeployment binds subs to mesh (nil mesh selects a fresh in-memory
// deployment). The mesh's worker count must match the subgraph count; the
// Deployment takes ownership of it and closes it in Close.
func NewDeployment(subs []*Subgraph, mesh transport.Deployment) (*Deployment, error) {
	if len(subs) == 0 {
		return nil, errors.New("bsp: no subgraphs")
	}
	if mesh == nil {
		m, err := transport.NewMemDeployment(len(subs))
		if err != nil {
			return nil, err
		}
		mesh = m
	}
	if mesh.NumWorkers() != len(subs) {
		return nil, fmt.Errorf("bsp: transport deployment has %d workers, %d subgraphs built",
			mesh.NumWorkers(), len(subs))
	}
	return &Deployment{k: len(subs), subs: subs, mesh: mesh,
		links: sync.OnceValue(func() []*Links { return ComponentLinks(subs) })}, nil
}

// NumWorkers returns the worker/subgraph count every job runs with (fixed
// for the deployment's lifetime; Swap preserves it).
func (d *Deployment) NumWorkers() int { return d.k }

// Epoch returns the current graph epoch: 0 at construction, incremented by
// every successful Swap. A job's Result reports the epoch it ran on.
func (d *Deployment) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Swap atomically replaces the deployment's subgraphs with a new snapshot,
// and their component-link table with one not yet built, and returns the
// new epoch. Jobs already executing keep the snapshot and table they captured
// at admission and finish on them untouched; jobs admitted after Swap run
// on the new epoch ("apply between jobs"). The worker count must not
// change — the transport mesh is sized for it.
func (d *Deployment) Swap(subs []*Subgraph) (uint64, error) {
	if len(subs) != d.k {
		return 0, fmt.Errorf("bsp: swap with %d subgraphs, deployment has %d workers", len(subs), d.k)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrDeploymentClosed
	}
	d.subs, d.links = subs, sync.OnceValue(func() []*Links { return ComponentLinks(subs) })
	d.epoch++
	return d.epoch, nil
}

// Run executes prog as one job of the deployment and returns its result.
// Safe for concurrent callers: each call opens its own job-scoped
// transports, so interleaved jobs of different widths coexist. Canceling
// ctx aborts the job within one superstep of wall time and returns
// ctx.Err(), never a partial result.
func (d *Deployment) Run(ctx context.Context, prog Program, cfg Config) (*Result, error) {
	if prog == nil {
		return nil, errors.New("bsp: nil program")
	}
	// Resolved ahead of runWorkers only because opening the job needs it.
	width, err := cfg.Width()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrDeploymentClosed
	}
	job := d.nextJob.Add(1)
	// Capture the subgraph snapshot, its link table and the epoch under the
	// same lock that admits the job: a concurrent Swap either lands before
	// admission (the job runs entirely on the new epoch) or after (the job
	// finishes on the old snapshot, which Swap never mutates).
	subs, links, epoch := d.subs, d.links, d.epoch
	trs, err := d.mesh.OpenJob(job, width)
	d.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("bsp: open job %d: %w", job, err)
	}
	// runWorkers closes the job transports itself on cancellation or
	// failure; close unconditionally so a completed job drops its job
	// entry (Close is idempotent and job-scoped — the mesh stays up).
	defer func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()
	out, err := runWorkers(ctx, prog, cfg, subs, func(i int) *Links { return links()[i] }, trs)
	if err != nil {
		if d.isClosed() && errors.Is(err, transport.ErrClosed) {
			return nil, fmt.Errorf("bsp: job %d (%s): %w", job, prog.Name(), ErrDeploymentClosed)
		}
		return nil, err
	}
	res := &Result{Steps: out[0].Steps, Workers: make([]WorkerStats, d.k), Epoch: epoch}
	workerValues := make([]*graph.ValueMatrix, d.k)
	for w := range out {
		res.Workers[w] = out[w].Stats
		workerValues[w] = out[w].Values
		res.WallTime = max(res.WallTime, out[w].WallTime)
	}
	res.Values, res.Covered, err = AssembleValues(subs, workerValues, width)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (d *Deployment) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Close tears the deployment down: in-flight jobs are released from their
// exchanges and fail with ErrDeploymentClosed; subsequent Run calls fail
// immediately. Idempotent.
func (d *Deployment) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	return d.mesh.Close()
}
