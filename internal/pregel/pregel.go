// Package pregel implements a vertex-centric ("think like a vertex") BSP
// engine in the style of Pregel/Giraph. It is the stand-in for the
// cross-framework comparators of the paper's Figure 2/3 (Galois, Blogel):
// the paper contrasts the subgraph-centric model against vertex-centric
// systems, whose defining cost is that *every* cross-worker edge can carry
// a message every superstep, instead of one message per cut-vertex replica.
//
// Vertices are assigned to workers by an ownership vector (hash by
// default); messages to remote vertices are combined per destination at the
// sender (the standard Pregel combiner optimization) and counted. Values
// and messages are scalars, as in the paper's three comparator programs.
package pregel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ebv/internal/graph"
)

// VertexProgram defines a vertex-centric computation over scalar values.
type VertexProgram interface {
	// Name returns the application name.
	Name() string
	// InitValue returns vertex v's starting value.
	InitValue(v graph.VertexID, g *graph.Graph) float64
	// InitiallyActive reports whether v computes in superstep 0.
	InitiallyActive(v graph.VertexID) bool
	// Combine merges two messages addressed to the same vertex.
	Combine(a, b float64) float64
	// Compute processes one active-or-messaged vertex: it receives the
	// vertex's value and the combined incoming message (hasMsg reports
	// presence), and returns the new value and whether to broadcast to
	// neighbors.
	Compute(step int, v graph.VertexID, value, msg float64, hasMsg bool) (next float64, broadcast bool)
	// EdgeMessage returns the message sent along one edge when v
	// broadcasts.
	EdgeMessage(v graph.VertexID, value float64, globalOutDeg int) float64
	// TraverseUndirected reports whether broadcasts follow in-edges too
	// (CC does; SSSP and PR follow out-edges only).
	TraverseUndirected() bool
	// FixedSupersteps, when > 0, runs exactly that many supersteps with
	// every vertex active (PageRank); 0 selects message-driven execution.
	FixedSupersteps() int
}

// Result is the outcome of a vertex-centric run.
type Result struct {
	Steps int
	// Values holds every vertex's final value (width 1, row v = vertex v).
	Values   *graph.ValueMatrix
	WallTime time.Duration
	// CompPerWorker[w] is worker w's total computation time.
	CompPerWorker []time.Duration
	// SentPerWorker[w] counts remote messages sent by worker w
	// (post-combining).
	SentPerWorker []int64
}

// TotalMessages sums remote messages across workers.
func (r *Result) TotalMessages() int64 {
	var total int64
	for _, s := range r.SentPerWorker {
		total += s
	}
	return total
}

// MaxMeanMessageRatio mirrors the bsp.Result metric.
func (r *Result) MaxMeanMessageRatio() float64 {
	if len(r.SentPerWorker) == 0 {
		return 1
	}
	var total, maxSent int64
	for _, s := range r.SentPerWorker {
		total += s
		if s > maxSent {
			maxSent = s
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxSent) / (float64(total) / float64(len(r.SentPerWorker)))
}

// Config tunes a Run.
type Config struct {
	// Owners[v] is the worker owning vertex v; nil selects hash ownership.
	Owners []int32
	// MaxSteps is the superstep safety cap (default 100000).
	MaxSteps int
}

// ErrMaxSteps reports that a run hit the superstep safety cap.
var ErrMaxSteps = errors.New("pregel: exceeded max supersteps without converging")

// Run executes prog over g with k workers. ctx is polled at every superstep
// barrier, so a canceled run returns ctx.Err() within one superstep.
func Run(ctx context.Context, g *graph.Graph, k int, prog VertexProgram, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return nil, fmt.Errorf("pregel: need at least one worker, got %d", k)
	}
	n := g.NumVertices()
	owners := cfg.Owners
	if owners == nil {
		owners = make([]int32, n)
		for v := range owners {
			owners[v] = int32(hashVertex(graph.VertexID(v)) % uint64(k))
		}
	} else if len(owners) != n {
		return nil, fmt.Errorf("pregel: %d owners for %d vertices", len(owners), n)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100000
	}

	out := graph.BuildCSR(g)
	var in *graph.CSR
	if prog.TraverseUndirected() {
		in = graph.BuildCSR(graph.Reverse(g))
	}

	// Per-worker vertex lists.
	owned := make([][]graph.VertexID, k)
	for v := 0; v < n; v++ {
		w := owners[v]
		owned[w] = append(owned[w], graph.VertexID(v))
	}

	values := make([]float64, n)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		values[v] = prog.InitValue(graph.VertexID(v), g)
		active[v] = prog.InitiallyActive(graph.VertexID(v))
	}

	// Double-buffered combined inboxes: one message plus a presence flag
	// per vertex.
	curMsg := make([]float64, n)
	curHas := make([]bool, n)
	nextMsg := make([]float64, n)
	nextHas := make([]bool, n)

	// Per-worker scratch outboxes (combined per destination vertex) to
	// avoid write contention; merged between supersteps.
	scratchMsg := make([][]float64, k)
	scratchHas := make([][]bool, k)
	for w := 0; w < k; w++ {
		scratchMsg[w] = make([]float64, n)
		scratchHas[w] = make([]bool, n)
	}

	res := &Result{
		CompPerWorker: make([]time.Duration, k),
		SentPerWorker: make([]int64, k),
	}
	fixed := prog.FixedSupersteps()

	start := time.Now()
	for step := 0; step < maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if fixed > 0 && step >= fixed {
			break
		}
		anyWork := false
		for v := 0; v < n && !anyWork; v++ {
			if active[v] || curHas[v] {
				anyWork = true
			}
		}
		if fixed == 0 && !anyWork {
			break
		}

		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				t0 := time.Now()
				myMsg, myHas := scratchMsg[w], scratchHas[w]
				for _, v := range owned[w] {
					runVertex := fixed > 0 || active[v] || curHas[v]
					if !runVertex {
						continue
					}
					next, broadcast := prog.Compute(step, v, values[v], curMsg[v], curHas[v])
					values[v] = next
					active[v] = false
					if !broadcast {
						continue
					}
					mv := prog.EdgeMessage(v, next, out.Degree(v))
					deliver := func(dst graph.VertexID) {
						if myHas[dst] {
							myMsg[dst] = prog.Combine(myMsg[dst], mv)
						} else {
							myMsg[dst] = mv
							myHas[dst] = true
						}
					}
					for _, dst := range out.Neighbors(v) {
						deliver(dst)
					}
					if in != nil {
						for _, dst := range in.Neighbors(v) {
							deliver(dst)
						}
					}
				}
				res.CompPerWorker[w] += time.Since(t0)
			}(w)
		}
		wg.Wait()

		// Merge scratch outboxes into the next inbox; count remote sends.
		for v := range nextHas {
			nextHas[v] = false
		}
		for w := 0; w < k; w++ {
			myMsg, myHas := scratchMsg[w], scratchHas[w]
			for v := 0; v < n; v++ {
				if !myHas[v] {
					continue
				}
				myHas[v] = false
				if owners[v] != int32(w) {
					res.SentPerWorker[w]++
				}
				if nextHas[v] {
					nextMsg[v] = prog.Combine(nextMsg[v], myMsg[v])
				} else {
					nextMsg[v] = myMsg[v]
					nextHas[v] = true
				}
			}
		}
		curMsg, nextMsg = nextMsg, curMsg
		curHas, nextHas = nextHas, curHas
		res.Steps = step + 1

		if fixed == 0 {
			// Quiescence check: no pending messages and no active vertex.
			pending := false
			for v := 0; v < n; v++ {
				if curHas[v] || active[v] {
					pending = true
					break
				}
			}
			if !pending {
				break
			}
		}
	}
	if res.Steps >= maxSteps {
		return nil, ErrMaxSteps
	}
	res.Values = &graph.ValueMatrix{Width: 1, Data: values}
	res.WallTime = time.Since(start)
	return res, nil
}

func hashVertex(v graph.VertexID) uint64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
