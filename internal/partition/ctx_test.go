package partition

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ebv/internal/gen"
)

// pollCountCtx reports Canceled from its (after+1)-th Err call on and counts
// the calls, so a test can cancel "mid-loop" deterministically and see how
// soon the loop noticed.
type pollCountCtx struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *pollCountCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestPartitionersHonorContext covers every partitioner of this package
// under the one Partition(ctx, g, k) signature: a pre-canceled ctx is
// refused by all of them (the hash baselines poll it once up front), and
// the streaming ones stop at the first poll after cancellation — within
// CancelCheckInterval iterations — returning no partial assignment.
func TestPartitionersHonorContext(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3 * CancelCheckInterval, NumEdges: 5 * CancelCheckInterval, Eta: 2.2, Directed: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"Random", "DBH", "CVC", "Grid", "HDRF", "Hybrid", "Fennel"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a, err := p.Partition(canceled, g, 8); !errors.Is(err, context.Canceled) || a != nil {
			t.Errorf("%s: pre-canceled ctx: got (%v, %v), want (nil, context.Canceled)", name, a, err)
		}
	}
	for _, p := range []Partitioner{&HDRF{}, &Hybrid{}, &Fennel{}} {
		ctx := &pollCountCtx{Context: context.Background(), after: 2}
		a, err := p.Partition(ctx, g, 8)
		if !errors.Is(err, context.Canceled) || a != nil {
			t.Errorf("%s: mid-stream cancel: got (%v, %v), want (nil, context.Canceled)", p.Name(), a, err)
		}
		if n := ctx.polls.Load(); n != 3 {
			t.Errorf("%s: polled ctx %d times, want 3 (stop at the first poll after cancellation)", p.Name(), n)
		}
	}
}
