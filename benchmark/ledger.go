package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// The layer ledger is the part of a traced run that does by hand what
// Pipeline.Open and Session.Run do, one public layer function per span:
// parse → partition → metrics → build → run each program of the cycle
// over the in-memory mesh and over the loopback TCP mesh. It is how a
// set-up or cycle change is located in a layer from outside, and it
// works the same on every workload (on the workload's largest graph).

const ledgerReps = 3

// ledgerResult is what the ledger hands back besides its spans: the
// exact per-cycle counts of the workload's own mesh, the wire bytes of one
// pass over the TCP mesh, the partition's quality, and the checked ops.
type ledgerResult struct {
	steps                    int
	emitted, wire, delivered int64
	maxMean                  float64
	wireBytes                int64
	rf, eif, vif             float64
	attempted, failed        int
}

// runLedger runs the decomposed pipeline ledgerReps times under "ledger"
// roots, recording spans and observations into tr and checking every
// result with the workload's dense checker.
func runLedger(ctx context.Context, tr *tracer, w *workload, in *inputs) (ledgerResult, error) {
	var res ledgerResult
	for rep := 0; rep < ledgerReps; rep++ {
		root := tr.begin(-1, "benchmark", "ledger", 0)
		err := res.rep(ctx, tr, root, w, in)
		tr.end(root)
		if err != nil {
			return res, fmt.Errorf("ledger: %w", err)
		}
	}
	return res, nil
}

// rep is one pass of the ledger under root.
func (l *ledgerResult) rep(ctx context.Context, tr *tracer, root int, w *workload, in *inputs) error {
	gi := in.graphs[0]
	sp := tr.begin(root, "graph", "graph.parse", 0)
	f, err := os.Open(gi.Path)
	if err != nil {
		return err
	}
	g, err := graph.ReadEdgeListParallel(f, gi.Undirected, 0)
	f.Close()
	parse := tr.end(sp)
	if err != nil {
		return err
	}
	tr.observe("graph.parse_mb_per_s", float64(gi.Bytes)/1e6/parse.Seconds())

	sp = tr.begin(root, "core", "core.partition", 0)
	a, err := partition.PartitionWithContext(ctx, core.New(), g, K)
	part := tr.end(sp)
	if err != nil {
		return err
	}
	tr.observe("core.edges_per_s", float64(g.NumEdges())/part.Seconds())

	sp = tr.begin(root, "partition", "partition.metrics", 0)
	m, err := partition.ComputeMetrics(g, a)
	tr.end(sp)
	if err != nil {
		return err
	}
	l.rf, l.eif, l.vif = m.ReplicationFactor, m.EdgeImbalance, m.VertexImbalance

	sp = tr.begin(root, "bsp", "bsp.build", 0)
	subs, err := bsp.BuildSubgraphsWeightedParallel(g, a, nil, 0)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin(root, "transport", "transport.mesh_open", 0)
	mesh, err := transport.NewTCPMeshDeployment(ctx, K)
	tr.end(sp)
	if err != nil {
		return err
	}
	tcp, err := bsp.NewDeployment(subs, mesh) // owns and closes the mesh
	if err != nil {
		_ = mesh.Close()
		return err
	}
	defer tcp.Close()
	mem, err := bsp.NewDeployment(subs, nil)
	if err != nil {
		return err
	}
	defer mem.Close()

	// One pass off the record (lazily created frame writers, pools), then
	// the recorded pass.
	for pass := 0; pass < 2; pass++ {
		for _, d := range []struct {
			name string
			dep  *bsp.Deployment
			own  bool // the mesh the workload itself runs on
		}{{"mem", mem, !w.tcp}, {"tcp", tcp, w.tcp}} {
			ptr, proot := tr, root
			if pass == 0 {
				ptr, proot = nil, -1
			}
			wire0 := mesh.WireBytes()
			var total, comp, comm, wait time.Duration
			var steps int
			var counts bsp.MessageCounts
			sent := make([]int64, K)
			var out []jobOut
			for _, app := range in.apps {
				sp := ptr.begin(proot, "bsp", "bsp.run_"+d.name+"."+app.key, 0)
				res, err := d.dep.Run(ctx, app.prog(), bsp.Config{ValueWidth: app.width, AutoCombine: true})
				total += ptr.end(sp)
				j := jobOut{key: app.key, err: err}
				if err == nil {
					j.values, j.covered = res.Values, res.Covered
					synthRun(ptr, sp, res)
					mc := res.MessageCounts()
					steps += res.Steps
					counts.Emitted, counts.Wire, counts.Delivered = counts.Emitted+mc.Emitted, counts.Wire+mc.Wire, counts.Delivered+mc.Delivered
					for i := range res.Workers {
						sent[i] += res.Workers[i].TotalSent()
					}
					comp, comm, wait = comp+res.AvgComp(), comm+res.AvgComm(), wait+avgSync(res)
				}
				out = append(out, j)
			}
			at, fl := in.dense.check(out, false)
			l.attempted, l.failed = l.attempted+at, l.failed+fl
			if pass == 0 {
				continue
			}
			ptr.observe("bsp.run_"+d.name+"_s", total.Seconds())
			if d.dep == tcp {
				l.wireBytes = mesh.WireBytes() - wire0
			}
			if d.own {
				ptr.observe("bsp.comp_s", comp.Seconds())
				ptr.observe("bsp.comm_s", comm.Seconds())
				ptr.observe("bsp.sync_s", wait.Seconds())
				l.steps, l.emitted, l.wire, l.delivered = steps, counts.Emitted, counts.Wire, counts.Delivered
				l.maxMean = maxMeanRatio(sent)
			}
		}
	}
	return nil
}

func avgSync(r *bsp.Result) time.Duration {
	var total time.Duration
	for i := range r.Workers {
		total += r.Workers[i].TotalSync()
	}
	if len(r.Workers) == 0 {
		return 0
	}
	return total / time.Duration(len(r.Workers))
}

// maxMeanRatio is the paper's Table V balance figure over a whole cycle:
// the busiest worker's sent rows over the mean.
func maxMeanRatio(sent []int64) float64 {
	var total, most int64
	for _, s := range sent {
		total += s
		most = max(most, s)
	}
	if total == 0 {
		return 1
	}
	return float64(most) * float64(len(sent)) / float64(total)
}

// ---- transport kernels ----

// The kernels drive the transport layer alone with synthetic
// ascending-id batches, in the two regimes the workloads put it in:
// many steps of small scalar frames (road-tcp) and few steps of wide
// rows in large frames (cluster-w8), plus the two combining primitives
// the engine calls per step. None of them should move powerlaw-mem.

// exchangeKernel runs steps collective exchanges over a fresh loopback
// TCP mesh, every worker sending rowsPerDest rows of the given width to
// each peer, and returns rows moved per second.
func exchangeKernel(ctx context.Context, steps, rowsPerDest, width int) (float64, error) {
	mesh, err := transport.NewTCPMeshDeployment(ctx, K)
	if err != nil {
		return 0, err
	}
	defer mesh.Close()
	trs, err := mesh.OpenJob(1, width)
	if err != nil {
		return 0, err
	}
	errs := make([]error, K)
	var wg sync.WaitGroup
	t0 := time.Now()
	for wkr := 0; wkr < K; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]*transport.MessageBatch, K)
			row := make([]float64, width)
			for step := 0; step < steps; step++ {
				for dst := range out {
					out[dst] = nil
					if dst == wkr {
						continue
					}
					b := transport.GetBatch(width)
					for i := 0; i < rowsPerDest; i++ {
						for j := range row {
							row[j] = float64(step + i + j)
						}
						b.AppendRow(graph.VertexID(i*K+wkr), row)
					}
					out[dst] = b
				}
				res, err := trs[wkr].Exchange(wkr, step, out, step+1 < steps)
				if err != nil {
					errs[wkr] = err
					return
				}
				for _, in := range res.In {
					if in != nil {
						transport.RecycleBatch(in)
					}
				}
			}
		}()
	}
	wg.Wait()
	took := time.Since(t0)
	for _, tr := range trs {
		_ = tr.Close()
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(steps*K*(K-1)*rowsPerDest) / took.Seconds(), nil
}

// coalesceKernel folds a batch in which every id appears twice.
func coalesceKernel(rows int) float64 {
	b := transport.NewMessageBatch(1)
	for i := 0; i < rows; i++ {
		b.AppendScalar(graph.VertexID(i/2), float64(i))
	}
	idx := transport.NewCombineIndex(rows)
	t0 := time.Now()
	b.Coalesce(transport.MinCombiner{}, idx)
	return float64(rows) / time.Since(t0).Seconds()
}

// mergeKernel merges K-1 ascending runs whose id ranges interleave and
// overlap, as a receiver does once per superstep.
func mergeKernel(rowsPerRun int) (float64, error) {
	runs := make([]*transport.MessageBatch, K-1)
	for r := range runs {
		runs[r] = transport.NewMessageBatch(1)
		for i := 0; i < rowsPerRun; i++ {
			runs[r].AppendScalar(graph.VertexID(i*3+r%3), float64(i))
		}
	}
	dst := transport.NewMessageBatch(1)
	var scratch transport.MergeScratch
	t0 := time.Now()
	if err := dst.MergeBatchesCombining(runs, transport.SumCombiner{}, &scratch); err != nil {
		return 0, err
	}
	return float64((K-1)*rowsPerRun) / time.Since(t0).Seconds(), nil
}

// runKernels measures each transport kernel kernelReps times.
func runKernels(ctx context.Context, tr *tracer) error {
	const kernelReps = 5
	for rep := 0; rep < kernelReps; rep++ {
		small, err := exchangeKernel(ctx, 300, 146, 1) // ~1k rows per worker per step
		if err != nil {
			return fmt.Errorf("small-frame kernel: %w", err)
		}
		wide, err := exchangeKernel(ctx, 5, 2900, 8) // ~20k width-8 rows per worker per step
		if err != nil {
			return fmt.Errorf("wide-row kernel: %w", err)
		}
		merge, err := mergeKernel(100_000)
		if err != nil {
			return fmt.Errorf("merge kernel: %w", err)
		}
		tr.observe("transport.small.rows_per_s", small)
		tr.observe("transport.wide.rows_per_s", wide)
		tr.observe("transport.coalesce_rows_per_s", coalesceKernel(1_000_000))
		tr.observe("transport.merge_rows_per_s", merge)
	}
	return nil
}
