package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ebv"
	"ebv/internal/apps"
	"ebv/internal/graph"
)

// The pinned input sizes at -scale 1. They are sized for the 2-core
// sandbox so that one run — inputs, oracles, every open and the timed
// cycles — fits the driver's per-run budget.
const (
	powerLawVertices = 100_000
	powerLawEdges    = 1_000_000
	roadSide         = 300
	servePLVertices  = 30_000
	servePLEdges     = 300_000
	serveRoadSide    = 150
	serveBatchJobs   = 40
	serveBatchEdges  = 200
)

// workloads is the pinned set, in the order BENCHMARK.json lists it.
var workloads = []*workload{
	{
		name: "powerlaw-mem",
		why: "EBV partition dominates setup_s and superstep compute dominates cycle_s over the in-memory mesh: " +
			"partitioner and kernel changes show here, transport changes must not",
		opensPerRound: 2,
		inputs: func(dir string, seed uint64, scale float64) (*inputs, error) {
			g, err := powerLawInput(dir, "powerlaw", seed, scaled(powerLawVertices, scale, 200), scaled(powerLawEdges, scale, 2000))
			if err != nil {
				return nil, err
			}
			return newInputs(g, appCC(), appPR(), appSSSP(hubVertex(g.oracle))), nil
		},
		open: func(ctx context.Context, in *inputs, tr *tracer, parent int) (system, error) {
			return openSession(ctx, in, tr, parent)
		},
	},
	{
		name: "road-tcp",
		why: "hundreds of supersteps of small scalar frames over loopback TCP: exchange and barrier wait dominate " +
			"cycle_s while partition is cheap, so wire, merge and barrier changes show here",
		opensPerRound: 3,
		tcp:           true,
		inputs: func(dir string, seed uint64, scale float64) (*inputs, error) {
			g, err := roadInput(dir, "road", seed, scaledSide(roadSide, scale, 12))
			if err != nil {
				return nil, err
			}
			return newInputs(g, appCC(), appSSSP(0)), nil
		},
		open: func(ctx context.Context, in *inputs, tr *tracer, parent int) (system, error) {
			return openSession(ctx, in, tr, parent, ebv.Undirected(), ebv.UseTCPLoopback())
		},
	},
	{
		name: "cluster-w8",
		why: "coordinator plus 8 agents on real sockets, wide rows in large frames on a mesh re-dialled per job: " +
			"the opposite transport regime from road-tcp; setup_s includes shard shipping",
		opensPerRound: 2,
		tcp:           true,
		inputs: func(dir string, seed uint64, scale float64) (*inputs, error) {
			g, err := powerLawInput(dir, "powerlaw", seed, scaled(powerLawVertices, scale, 200), scaled(powerLawEdges, scale, 2000))
			if err != nil {
				return nil, err
			}
			return newInputs(g, appPR(), appAGG()), nil
		},
		open: openCluster,
	},
	{
		name: "serve-mixed",
		why: "closed loop of 2 HTTP clients over two resident graphs with live edge mutations beside the reads: " +
			"admission, cache, JSON, concurrent Session.Run, and reads traded against writes",
		opensPerRound: 2,
		inputs:        serveInputs,
		open:          openServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// appSpec is one program of a cycle, in the three forms the three
// serving paths take it, with its sequential oracle.
type appSpec struct {
	key    string // CC, PR, SSSP, AGG: the apps.<key>.job_s row
	width  int
	prog   func() ebv.Program
	job    ebv.ClusterJob
	oracle func(g *graph.Graph) *oracle
}

func appCC() appSpec {
	return appSpec{key: "CC", width: 1,
		prog: func() ebv.Program { return &ebv.CC{} },
		job:  ebv.ClusterJob{App: "CC", Combine: true},
		oracle: func(g *graph.Graph) *oracle {
			return &oracle{want: apps.SequentialCC(g), width: 1}
		}}
}

func appPR() appSpec {
	return appSpec{key: "PR", width: 1,
		prog: func() ebv.Program { return &ebv.PageRank{Iterations: 10} },
		job:  ebv.ClusterJob{App: "PR", Iterations: 10, Combine: true},
		oracle: func(g *graph.Graph) *oracle {
			return &oracle{want: apps.SequentialPageRank(g, 10, 0), width: 1, tol: 1e-9}
		}}
}

func appSSSP(src graph.VertexID) appSpec {
	return appSpec{key: "SSSP", width: 1,
		prog: func() ebv.Program { return &ebv.SSSP{Source: src} },
		job:  ebv.ClusterJob{App: "SSSP", Source: int64(src), Combine: true},
		oracle: func(g *graph.Graph) *oracle {
			return &oracle{want: apps.SequentialSSSP(g, src), width: 1}
		}}
}

func appAGG() appSpec {
	const layers, width = 2, 8
	return appSpec{key: "AGG", width: width,
		prog: func() ebv.Program { return &ebv.Aggregate{Layers: layers} },
		job:  ebv.ClusterJob{App: "Aggregate", Layers: layers, ValueWidth: width, Combine: true},
		oracle: func(g *graph.Graph) *oracle {
			return &oracle{want: apps.SequentialAggregate(g, layers, width, nil).Data, width: width, tol: 1e-9}
		}}
}

// newInputs bundles the main graph with its cycle's programs.
func newInputs(g *graphInput, cycle ...appSpec) *inputs {
	return &inputs{graphs: []*graphInput{g}, apps: cycle, dense: newDenseChecker(g.oracle, cycle)}
}

// denseChecker verifies jobs that return the whole value matrix. The
// full check compares against the sequential oracle and records the
// result's checksum; every later cycle must reproduce that checksum.
type denseChecker struct {
	g       *graph.Graph
	apps    map[string]appSpec
	oracles map[string]*oracle
	ref     map[string]uint64
}

func newDenseChecker(g *graph.Graph, cycle []appSpec) *denseChecker {
	d := &denseChecker{g: g, apps: make(map[string]appSpec), oracles: make(map[string]*oracle), ref: make(map[string]uint64)}
	for _, a := range cycle {
		d.apps[a.key] = a
	}
	return d
}

func (d *denseChecker) check(jobs []jobOut, full bool) (attempted, failed int) {
	for _, j := range jobs {
		attempted++
		if j.err != nil || j.values == nil {
			failed++
			continue
		}
		sum := checksum(j.values, j.covered)
		ref, seen := d.ref[j.key]
		if full || !seen {
			o := d.oracles[j.key]
			if o == nil {
				o = d.apps[j.key].oracle(d.g)
				d.oracles[j.key] = o
			}
			if !o.matchesAll(d.g, j.values, j.covered) {
				failed++
				continue
			}
			if !seen {
				d.ref[j.key], ref = sum, sum
			}
		}
		if sum != ref {
			failed++
		}
	}
	return attempted, failed
}

// ---- Session workloads (powerlaw-mem, road-tcp) ----

type sessionSystem struct {
	s  *ebv.Session
	in *inputs
}

// openSession is Pipeline.Open over the workload's edge list: the setup
// a Session caller pays. Traced, the span carries the stage times Open
// reports as children.
func openSession(ctx context.Context, in *inputs, tr *tracer, parent int, extra ...ebv.PipelineOption) (system, error) {
	opts := append([]ebv.PipelineOption{ebv.FromEdgeList(in.graphs[0].Path), ebv.Subgraphs(K)}, extra...)
	sp := tr.begin(parent, "ebv", "ebv.Open", 0)
	s, err := ebv.NewPipeline(opts...).Open(ctx)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	synthPrepared(tr, sp, s.Prepared())
	return &sessionSystem{s: s, in: in}, nil
}

// synthPrepared hangs the stage times a prepare reported under its span.
func synthPrepared(tr *tracer, sp int, p *ebv.PipelineResult) {
	tr.synth(sp,
		synthPart{"graph", "graph.parse", p.LoadTime},
		synthPart{"core", "core.partition", p.PartitionTime},
		synthPart{"bsp", "bsp.build", p.BuildTime})
}

func (s *sessionSystem) cycle(ctx context.Context, tr *tracer, parent int) []jobOut {
	var out []jobOut
	for _, a := range s.in.apps {
		sp := tr.begin(parent, "bsp", "apps."+a.key, 0)
		jr, err := s.s.Run(ctx, a.prog(), ebv.WithValueWidth(a.width))
		tr.end(sp)
		j := jobOut{key: a.key, err: err}
		if err == nil {
			j.values, j.covered = jr.BSP.Values, jr.BSP.Covered
			synthRun(tr, sp, jr.BSP)
		}
		out = append(out, j)
	}
	return out
}

// synthRun splits a job's span by core-seconds: the K workers' summed
// compute (the program's supersteps) and summed exchange time (the
// transport), each divided by the cores they shared. Per-worker means
// would not do — with K workers on fewer cores a worker mostly waits for
// peers that are waiting for a core, and that wait is nobody's work.
// What is left of the span is the engine: idle at the barrier, job
// set-up and result assembly.
func synthRun(tr *tracer, sp int, r *ebv.RunResult) {
	if tr == nil {
		return
	}
	var comp, comm time.Duration
	for i := range r.Workers {
		comp += r.Workers[i].TotalComp()
		comm += r.Workers[i].TotalComm()
	}
	cores := time.Duration(min(runtime.GOMAXPROCS(0), len(r.Workers)))
	tr.synth(sp,
		synthPart{"apps", "bsp.comp", comp / cores},
		synthPart{"transport", "bsp.comm", comm / cores})
}

func (s *sessionSystem) check(jobs []jobOut, full bool) (int, int) {
	return s.in.dense.check(jobs, full)
}
func (s *sessionSystem) finish(context.Context) (int, int) { return 0, 0 }
func (s *sessionSystem) replicationFactor() float64 {
	return s.s.Prepared().Metrics.ReplicationFactor
}
func (s *sessionSystem) close() error { return s.s.Close() }

// ---- cluster-w8 ----

type clusterSystem struct {
	c      *ebv.Cluster
	in     *inputs
	agents sync.WaitGroup
}

// openCluster is OpenCluster plus K in-process agents on loopback
// sockets. Registration alone does not mean the shards have arrived, so
// ready-for-the-first-job is a one-iteration probe job returning: a job
// cannot start until every agent holds its shard.
func openCluster(ctx context.Context, in *inputs, tr *tracer, parent int) (system, error) {
	sp := tr.begin(parent, "cluster", "ebv.OpenCluster", 0)
	c, err := ebv.NewPipeline(ebv.FromEdgeList(in.graphs[0].Path), ebv.Subgraphs(K)).OpenCluster(ctx, ebv.ClusterOptions{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	synthPrepared(tr, sp, c.Prepared())
	s := &clusterSystem{c: c, in: in}

	sp = tr.begin(parent, "cluster", "cluster.register_ship", 0)
	for i := 0; i < K; i++ {
		s.agents.Add(1)
		go func() {
			defer s.agents.Done()
			// The agent's error is the coordinator's shutdown notice.
			_ = ebv.RunClusterAgent(ctx, ebv.ClusterAgentConfig{Coordinator: c.Addr()})
		}()
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.NumRegistered() < K {
		if time.Now().After(deadline) {
			_ = s.close()
			return nil, fmt.Errorf("only %d of %d agents registered", c.NumRegistered(), K)
		}
		time.Sleep(200 * time.Microsecond)
	}
	_, err = c.Run(ctx, ebv.ClusterJob{App: "PR", Iterations: 1, Combine: true})
	tr.end(sp)
	if err != nil {
		_ = s.close()
		return nil, fmt.Errorf("probe job: %w", err)
	}
	return s, nil
}

func (s *clusterSystem) cycle(ctx context.Context, tr *tracer, parent int) []jobOut {
	var out []jobOut
	for _, a := range s.in.apps {
		sp := tr.begin(parent, "cluster", "apps."+a.key, 0)
		res, err := s.c.Run(ctx, a.job)
		took := tr.end(sp)
		j := jobOut{key: a.key, err: err}
		if err == nil {
			tr.observe("cluster.job_s."+a.key, took.Seconds())
			tr.observe("cluster.attempts", float64(res.Attempts))
			if res.Attempts != 1 {
				j.err = fmt.Errorf("%s took %d attempts", a.key, res.Attempts)
			}
			j.values, j.covered = res.Values, res.Covered
		}
		out = append(out, j)
	}
	return out
}

func (s *clusterSystem) check(jobs []jobOut, full bool) (int, int) {
	return s.in.dense.check(jobs, full)
}
func (s *clusterSystem) finish(context.Context) (int, int) { return 0, 0 }
func (s *clusterSystem) replicationFactor() float64 {
	return s.c.Prepared().Metrics.ReplicationFactor
}

func (s *clusterSystem) close() error {
	err := s.c.Close()
	s.agents.Wait()
	return err
}
