package transport

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"ebv/internal/graph"
)

// MessageBatch is the columnar (structure-of-arrays) unit of the message
// plane: one batch carries every message a worker sends to one destination
// worker in one superstep. Message i addresses vertex IDs[i] and carries
// the value row Vals[i*Width : (i+1)*Width]. Width is the run's value
// width (1 for the paper's scalar applications; wider rows carry the
// feature vectors of GNN-style aggregation).
//
// The columnar layout is what lets the wire format ship the ID and value
// columns whole, at fixed width, instead of per-message structs,
// and lets receivers install rows with strided copies.
type MessageBatch struct {
	// Width is the number of float64 values per message (>= 1).
	Width int
	// IDs[i] is the global vertex addressed by message i.
	IDs []graph.VertexID
	// Vals holds the value rows, row-major; len(Vals) == len(IDs)*Width.
	Vals []float64
}

// MaxValueWidth is the largest per-message value width any transport
// accepts (the TCP frame header caps it, and the engine validates
// configured widths against it so a run behaves the same on every
// transport).
const MaxValueWidth = 1 << 16

// NewMessageBatch returns an empty batch of the given width (width < 1
// selects 1). Prefer GetBatch on superstep hot paths: it recycles.
func NewMessageBatch(width int) *MessageBatch {
	if width < 1 {
		width = 1
	}
	return &MessageBatch{Width: width}
}

// Len returns the number of messages in the batch. Nil-safe.
func (b *MessageBatch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.IDs)
}

// Reset empties the batch, keeping capacity.
func (b *MessageBatch) Reset() {
	b.IDs = b.IDs[:0]
	b.Vals = b.Vals[:0]
}

// Row returns message i's value row, aliasing the batch.
func (b *MessageBatch) Row(i int) []float64 {
	return b.Vals[i*b.Width : (i+1)*b.Width]
}

// Scalar returns column 0 of message i's row — the whole payload in the
// width-1 case.
func (b *MessageBatch) Scalar(i int) float64 { return b.Vals[i*b.Width] }

// AppendScalar appends a message whose row is (v, 0, 0, ...): the scalar
// applications' append path, one branchless append when Width is 1.
func (b *MessageBatch) AppendScalar(id graph.VertexID, v float64) {
	b.IDs = append(b.IDs, id)
	if b.Width == 1 {
		b.Vals = append(b.Vals, v)
		return
	}
	row := b.grow()
	row[0] = v
	for j := 1; j < len(row); j++ {
		row[j] = 0
	}
}

// AppendRow appends a message carrying a copy of the given row
// (len(row) must equal Width).
func (b *MessageBatch) AppendRow(id graph.VertexID, row []float64) {
	b.IDs = append(b.IDs, id)
	b.Vals = append(b.Vals, row[:b.Width]...)
}

// AppendBatch appends every message of o (which must have the same width).
func (b *MessageBatch) AppendBatch(o *MessageBatch) {
	if o.Len() == 0 {
		return
	}
	b.IDs = append(b.IDs, o.IDs...)
	b.Vals = append(b.Vals, o.Vals...)
}

// grow extends Vals by one uninitialized row and returns it.
func (b *MessageBatch) grow() []float64 {
	n := len(b.Vals)
	b.Vals = slices.Grow(b.Vals, b.Width)[:n+b.Width]
	return b.Vals[n:]
}

// Check validates the batch's internal shape; engines call it on batches
// crossing the transport boundary.
func (b *MessageBatch) Check(width int) error {
	if b == nil {
		return nil
	}
	if b.Width < 1 {
		return fmt.Errorf("transport: batch width %d invalid: must be >= 1", b.Width)
	}
	if b.Width != width {
		return fmt.Errorf("transport: batch width %d, run width %d", b.Width, width)
	}
	if len(b.Vals) != len(b.IDs)*b.Width {
		return fmt.Errorf("transport: batch has %d values for %d ids of width %d",
			len(b.Vals), len(b.IDs), b.Width)
	}
	return nil
}

// Pooled batch allocation. A process-wide set of pools serves every run
// and transport: supersteps Get fresh outgoing batches, the engine recycles
// delivered batches after copying them into its inbox, and the TCP
// transport recycles outgoing batches once their frames are on the wire —
// so steady-state supersteps allocate nothing.
//
// The pools are segregated by power-of-two width class so that concurrent
// jobs of different widths (the Session API's serving mode) stay safe AND
// economical: a narrow job never drains batches whose Vals capacity was
// sized for a wide job (unbounded cross-width capacity transfer), and a
// wide job never warms up on batches that must immediately regrow. Within
// a class, Get reslices the columns to the requested width.
var batchPools [batchWidthClasses]sync.Pool

// batchWidthClasses covers widths up to MaxValueWidth = 1<<16: class c
// holds widths in (2^(c-1), 2^c].
const batchWidthClasses = 17

// batchPool returns the pool serving the given width's class. Widths
// beyond MaxValueWidth (which no transport accepts — the engine rejects
// them at config time) share the top class rather than panicking, so a
// direct GetBatch/RecycleBatch caller degrades instead of crashing.
func batchPool(width int) *sync.Pool {
	class := bits.Len(uint(width - 1))
	if class >= batchWidthClasses {
		class = batchWidthClasses - 1
	}
	return &batchPools[class]
}

// GetBatch returns an empty pooled batch of the given width (< 1 selects 1).
func GetBatch(width int) *MessageBatch {
	if width < 1 {
		width = 1
	}
	b, _ := batchPool(width).Get().(*MessageBatch)
	if b == nil {
		b = new(MessageBatch)
	}
	b.Width = width
	b.Reset()
	return b
}

// RecycleBatch returns b to the pool. Nil-safe. The caller must not touch
// b afterwards — under the poison debug mode (see SetPoisonRecycled) the
// batch's contents are scribbled first, so code that illegally retains a
// batch across a superstep reads NaNs and a sentinel vertex id instead of
// silently-corrupted values.
func RecycleBatch(b *MessageBatch) {
	if b == nil {
		return
	}
	if poisonRecycled.Load() {
		b.poison()
	}
	width := b.Width
	if width < 1 {
		width = 1
	}
	b.Reset()
	batchPool(width).Put(b)
}

// PoisonID is the sentinel vertex id scribbled over recycled batches in
// poison mode.
const PoisonID graph.VertexID = 0xDEADBEEF

// poisonRecycled gates the recycling debug mode. Off by default (the
// scribble costs a full pass over the batch); enabled by SetPoisonRecycled
// or by setting the EBV_DEBUG environment variable to a non-empty value.
var poisonRecycled atomic.Bool

func init() {
	if os.Getenv("EBV_DEBUG") != "" {
		poisonRecycled.Store(true)
	}
}

// SetPoisonRecycled toggles the poison debug mode at run time (tests use
// it; deployments use EBV_DEBUG=1).
func SetPoisonRecycled(on bool) { poisonRecycled.Store(on) }

// PoisonRecycledEnabled reports whether recycled batches are scribbled.
func PoisonRecycledEnabled() bool { return poisonRecycled.Load() }

// poison scribbles the batch's live contents: every id becomes PoisonID
// and every value NaN, so a retained slice header fails loudly.
func (b *MessageBatch) poison() {
	for i := range b.IDs {
		b.IDs[i] = PoisonID
	}
	nan := math.NaN()
	for i := range b.Vals {
		b.Vals[i] = nan
	}
}
