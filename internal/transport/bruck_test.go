package transport

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ebv/internal/graph"
)

// voteID stands in for the engine's vote control row id (the graph's
// vertex count): a row the engine appends last to a peer batch.
const voteID = 1 << 20

// scriptBatch is worker src's step-step batch for dst in a k-worker
// exchange: nil, empty, one row, integral rows, noisy rows, or rows ending
// in a vote control row, cycling with (step, src, dst). A big batch encodes
// to more than smallBlockBytes.
func scriptBatch(step, src, dst, width int, big bool) *MessageBatch {
	rng := rand.New(rand.NewSource(int64(step*1_000_003 + src*1009 + dst)))
	row := make([]float64, width)
	b := GetBatch(width)
	if big {
		for i := 0; i <= smallBlockBytes/8; i++ {
			for c := range row {
				row[c] = rng.Float64()
			}
			b.AppendRow(graph.VertexID(3*i), row)
		}
		return b
	}
	switch (step + 2*src + 3*dst) % 6 {
	case 0:
		RecycleBatch(b)
		return nil
	case 1:
		return b
	case 2:
		row[0] = float64(src*100 + dst)
		b.AppendRow(graph.VertexID(src*1000+dst), row)
	case 3:
		for i := 0; i < 40; i++ {
			row[0] = float64(i % 7)
			b.AppendRow(graph.VertexID(5*i+src), row)
		}
	case 4:
		for i := 0; i < 40; i++ {
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			b.AppendRow(graph.VertexID(rng.Intn(voteID)), row)
		}
	case 5:
		for i := 0; i < 3; i++ {
			row[0] = float64(i)
			b.AppendRow(graph.VertexID(i), row)
		}
		clear(row)
		row[0] = []float64{math.NaN(), math.Inf(-1), 3.5}[step%3]
		b.AppendRow(voteID+graph.VertexID(step%2), row)
	}
	return b
}

// sameBatch reports whether got is bit-identical to want, an empty want
// matching a nil got.
func sameBatch(got, want *MessageBatch) bool {
	if want.Len() == 0 {
		return got == nil
	}
	if got.Len() != want.Len() || got.Width != want.Width {
		return false
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			return false
		}
	}
	for i := range want.Vals {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
			return false
		}
	}
	return true
}

// votes is worker w's active vote at step: at most one worker of k votes
// active, and some steps none does.
func votes(step, w, k int) bool { return (7*step+w)%(2*k) == 0 }

// runScript drives one job of width through the given steps on a fresh
// k-worker TCP mesh whose nodes run radix (0 = the adaptive rule). Every
// worker checks In against the script and AnyActive against the OR of the
// workers' votes, and records the radix its job picked for the next exchange.
func runScript(t *testing.T, k, width, radix int, big []bool) [][]int {
	t.Helper()
	d, err := NewTCPMeshDeployment(t.Context(), k)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, n := range d.nodes {
		n.radix = radix
	}
	ts, err := d.OpenJob(1, width)
	if err != nil {
		t.Fatal(err)
	}
	next := make([][]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if errs[w] != nil { // release the workers still waiting on this one
					for _, tr := range ts {
						_ = tr.Close()
					}
				}
			}()
			errs[w] = func() error {
				for step := range big {
					// Worker 1's block for worker 0 alone is big: the AND
					// must carry it to every worker.
					out := make([]*MessageBatch, k)
					for dst := range out {
						out[dst] = scriptBatch(step, w, dst, width, big[step] && w == 1 && dst == 0)
					}
					self := out[w]
					res, err := ts[w].Exchange(w, step, out, votes(step, w, k))
					if err != nil {
						return fmt.Errorf("step %d: %w", step, err)
					}
					if res.In[w] != self {
						return fmt.Errorf("step %d: self slot is not the batch handed in", step)
					}
					for src, in := range res.In {
						if src == w {
							continue
						}
						want := scriptBatch(step, src, w, width, big[step] && src == 1 && w == 0)
						if !sameBatch(in, want) {
							return fmt.Errorf("step %d from %d: got %d rows %v, want %d rows", step, src, in.Len(), in, want.Len())
						}
						RecycleBatch(in)
						RecycleBatch(want)
					}
					wantActive := false
					for v := 0; v < k; v++ {
						wantActive = wantActive || votes(step, v, k)
					}
					if res.AnyActive != wantActive {
						return fmt.Errorf("step %d: AnyActive = %v, want %v", step, res.AnyActive, wantActive)
					}
					next[w] = append(next[w], ts[w].(*muxJob).radix)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("k = %d radix %d worker %d: %v", k, radix, w, err)
		}
	}
	for _, tr := range ts {
		_ = tr.Close()
	}
	return next
}

// TestExchangeRadixEquivalence: the direct exchange and the radix-2
// schedule deliver the same bits — In[src] is exactly the batch src handed
// to Exchange, AnyActive the OR of every vote — at k ∈ {2, 3, 5, 8} over
// nil, empty, width-1 and width-8 batches, batches ending in a vote control
// row, and big blocks inside a radix-2 exchange. A job whose steps
// alternate small and big switches radix both ways, and every worker picks
// the same radix.
func TestExchangeRadixEquivalence(t *testing.T) {
	const steps = 8
	for _, k := range []int{2, 3, 5, 8} {
		for _, width := range []int{1, 8} {
			t.Run(fmt.Sprintf("k%d/w%d", k, width), func(t *testing.T) {
				big := make([]bool, steps)
				big[steps/2] = true
				runScript(t, k, width, k, big)
				runScript(t, k, width, 2, big)
			})
		}
	}
	for _, k := range []int{5, 8} {
		t.Run(fmt.Sprintf("k%d/switch", k), func(t *testing.T) {
			big := []bool{false, false, true, false, true, true, false, false}
			next := runScript(t, k, 1, 0, big)
			for w := range next {
				for step, r := range next[w] {
					want := 2
					if big[step] {
						want = k
					}
					if r != want {
						t.Fatalf("worker %d after step %d picked radix %d, want %d", w, step, r, want)
					}
				}
			}
		})
	}
}

// BenchmarkExchangeBlockSize runs exchange steps of a k = 8 TCP mesh in
// which every worker sends every peer one block of about the given encoded
// size, under the direct exchange (radix k) and the radix-2 schedule, and
// reports µs per step: the crossover sets smallBlockBytes.
func BenchmarkExchangeBlockSize(b *testing.B) {
	const k = 8
	for _, size := range []int{64, 256, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10} {
		// A scalar row is a 4-byte id and an 8-byte value on the wire.
		tmpl := NewMessageBatch(1)
		rng := rand.New(rand.NewSource(int64(size)))
		for i := 0; i < max(1, (size-blockHeaderBytes)/12); i++ {
			tmpl.AppendScalar(graph.VertexID(i), rng.Float64())
		}
		for _, radix := range []int{k, 2} {
			b.Run(fmt.Sprintf("%dB/radix%d", size, radix), func(b *testing.B) {
				d, err := NewTCPMeshDeployment(b.Context(), k)
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				for _, n := range d.nodes {
					n.radix = radix
				}
				ts, err := d.OpenJob(1, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := range ts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for step := 0; step < b.N; step++ {
							out := make([]*MessageBatch, k)
							for dst := range out {
								if dst != w {
									out[dst] = GetBatch(1)
									out[dst].AppendBatch(tmpl)
								}
							}
							res, err := ts[w].Exchange(w, step, out, true)
							if err != nil {
								b.Error(err)
								return
							}
							for _, in := range res.In {
								RecycleBatch(in)
							}
						}
					}()
				}
				wg.Wait()
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/step")
			})
		}
	}
}
