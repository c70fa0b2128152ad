// Package batchown is the batchown analyzer's fixture: every way a
// pooled MessageBatch can escape Superstep or leak past the pool.
package batchown

import (
	"ebv/internal/graph"
	"ebv/internal/transport"
)

var sink *transport.MessageBatch

var sinkIDs []graph.VertexID

var sinkRow []float64

func consume(b *transport.MessageBatch) { _ = b.Len() }

// ---- rule 1: Superstep's in must not escape -------------------------

type retProg struct{}

func (retProg) Superstep(step int, in *transport.MessageBatch) (*transport.MessageBatch, bool) {
	_ = step
	return in, false // want "is returned"
}

type litProg struct{}

func (litProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	return []*transport.MessageBatch{in}, false // want "composite literal"
}

type fieldProg struct {
	stash *transport.MessageBatch
}

func (p *fieldProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	p.stash = in // want "stored outside the call frame"
	return nil, false
}

type globalProg struct{}

func (globalProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	sink = in // want "package-level variable"
	return nil, false
}

type aliasProg struct{}

func (aliasProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	ids := in.IDs       // local alias: tracked, not yet an escape
	sinkIDs = ids       // want "package-level variable"
	sinkRow = in.Row(0) // want "package-level variable"
	return nil, false
}

type appendProg struct{}

func (appendProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	var outs []*transport.MessageBatch
	outs = append(outs, in) // want "appended to a slice"
	return outs, false
}

type goProg struct{}

func (goProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	go consume(in) // want "handed to a goroutine"
	return nil, false
}

type deferProg struct{}

func (deferProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	defer consume(in) // want "deferred call"
	return nil, false
}

type litCapProg struct{}

func (litCapProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	f := func() int { return in.Len() } // want "captured by a function literal"
	_ = f
	return nil, false
}

type sendProg struct {
	ch chan *transport.MessageBatch
}

func (p *sendProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	p.ch <- in // want "sent on a channel"
	return nil, false
}

type recycleProg struct{}

func (recycleProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	transport.RecycleBatch(in) // want "recycled by the program"
	return nil, false
}

// cleanProg reads in the sanctioned ways: lengths, scalars, element
// copies into a fresh pooled batch the engine then owns.
type cleanProg struct{}

func (cleanProg) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	_ = step
	if in == nil || in.Len() == 0 {
		return nil, false
	}
	out := transport.GetBatch(in.Width)
	for i := 0; i < in.Len(); i++ {
		out.AppendScalar(in.IDs[i], in.Scalar(i)*0.5)
	}
	row := make([]float64, in.Width)
	copy(row, in.Row(0))
	outs := make([]*transport.MessageBatch, 1)
	outs[0] = out
	return outs, true
}

// ---- rule 2: pooled batches must be recycled or transferred ---------

func discard() {
	transport.GetBatch(4) // want "discarded"
}

func leak() {
	b := transport.GetBatch(4) // want "never reaches RecycleBatch"
	b.AppendScalar(1, 2)
}

func balanced() float64 {
	b := transport.GetBatch(4)
	defer transport.RecycleBatch(b)
	b.AppendScalar(1, 2)
	return b.Scalar(0)
}

func transferStore(out map[int]*transport.MessageBatch) {
	b := transport.GetBatch(4)
	b.AppendScalar(1, 2)
	out[0] = b
}

func transferSend(ch chan *transport.MessageBatch) {
	b := transport.GetBatch(4)
	ch <- b
}

func returnNoOwns() *transport.MessageBatch {
	return transport.GetBatch(4) // want "document the ownership transfer"
}

// mint hands a fresh pooled batch to the caller.
//
//ebv:owns the caller inherits the recycle obligation
func mint(width int) *transport.MessageBatch {
	return transport.GetBatch(width)
}

func trackedReturnNoOwns() *transport.MessageBatch {
	b := transport.GetBatch(4) // want "transfers the pooled batch"
	b.AppendScalar(1, 2)
	return b
}

// fill appends a built batch to the shard list for the caller to drain.
//
//ebv:owns batches in the returned shards are recycled by the exchange
func fill(shards [][]*transport.MessageBatch) [][]*transport.MessageBatch {
	b := transport.GetBatch(4)
	b.AppendScalar(7, 1)
	shards[0] = append(shards[0], b)
	return shards
}
