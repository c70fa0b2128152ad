package bsp_test

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// checkpointStore captures checkpoints by epoch, deep-copying the inbox
// columns (which alias engine memory and are only valid during the sink
// call — exactly the contract the on-disk codec serializes under).
type checkpointStore struct {
	mu     sync.Mutex
	k      int
	epochs map[int][]*bsp.Checkpoint
}

func newCheckpointStore(k int) *checkpointStore {
	return &checkpointStore{k: k, epochs: make(map[int][]*bsp.Checkpoint)}
}

func (s *checkpointStore) sink(worker int, cp *bsp.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	eps := s.epochs[cp.Step]
	if eps == nil {
		eps = make([]*bsp.Checkpoint, s.k)
		s.epochs[cp.Step] = eps
	}
	eps[worker] = &bsp.Checkpoint{
		Step:      cp.Step,
		State:     cp.State,
		InboxIDs:  slices.Clone(cp.InboxIDs),
		InboxVals: slices.Clone(cp.InboxVals),
		Vote:      cp.Vote,
	}
	return nil
}

// completeEpochs returns the steps at which every worker checkpointed,
// ascending.
func (s *checkpointStore) completeEpochs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var steps []int
	for step, eps := range s.epochs {
		complete := true
		for _, cp := range eps {
			if cp == nil {
				complete = false
				break
			}
		}
		if complete {
			steps = append(steps, step)
		}
	}
	sort.Ints(steps)
	return steps
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestResumeByteIdentity is the engine-level half of the failover
// guarantee: for every program, resuming from ANY complete checkpoint
// epoch reproduces the uninterrupted run bit for bit — same step count,
// same value matrix.
func TestResumeByteIdentity(t *testing.T) {
	const k = 4
	pl := testGraphs(t)["powerlaw"]
	weights := graph.HashWeights(pl, 42, 1, 10)
	path := pathGraph(t, 300) // long label-propagation chains: many epochs for CC/SSSP

	random := &partition.Random{}
	plSubs := buildSubs(t, pl, random, k)
	pathSubs := buildSubs(t, path, random, k)
	pa, err := random.Partition(t.Context(), pl, k)
	if err != nil {
		t.Fatal(err)
	}
	wSubs, err := bsp.BuildSubgraphsWeightedParallel(pl, pa, weights, 0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		prog  bsp.Program
		subs  []*bsp.Subgraph
		width int
	}{
		{"CC", &apps.CC{}, pathSubs, 1},
		{"PR", &apps.PageRank{Iterations: 12}, plSubs, 1},
		{"PR-tol", &apps.PageRank{Tol: 1e-6, Iterations: 500}, plSubs, 1},
		{"SSSP", &apps.SSSP{Source: 0}, pathSubs, 1},
		{"WSSSP", &apps.SSSP{Source: 0, Weighted: true}, wSubs, 1},
		{"Aggregate", &apps.Aggregate{Layers: 6}, plSubs, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := newCheckpointStore(k)
			full, err := bsp.Run(t.Context(), tc.subs, tc.prog, bsp.Config{
				ValueWidth:             tc.width,
				VerifyReplicaAgreement: true,
				CheckpointEvery:        1,
				CheckpointSink:         store.sink,
			})
			if err != nil {
				t.Fatalf("full run: %v", err)
			}
			epochs := store.completeEpochs()
			if len(epochs) == 0 {
				t.Fatalf("no complete checkpoint epoch in %d steps", full.Steps)
			}
			for _, epoch := range epochs {
				res, err := bsp.Run(t.Context(), tc.subs, tc.prog, bsp.Config{
					ValueWidth:             tc.width,
					VerifyReplicaAgreement: true,
					Resume:                 store.epochs[epoch],
				})
				if err != nil {
					t.Fatalf("resume from epoch %d: %v", epoch, err)
				}
				if res.Steps != full.Steps {
					t.Fatalf("resume from epoch %d: %d steps, want %d", epoch, res.Steps, full.Steps)
				}
				if !res.Values.EqualValues(full.Values) {
					t.Fatalf("resume from epoch %d: values differ from uninterrupted run", epoch)
				}
			}
			t.Logf("%s: %d steps, %d epochs resumed bit-identically", tc.name, full.Steps, len(epochs))
		})
	}
}

// nonResumableProg is active for a fixed number of steps and implements
// only the base WorkerProgram interface.
type nonResumableProg struct{ steps int }

func (p *nonResumableProg) Name() string { return "static" }
func (p *nonResumableProg) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &nonResumableWorker{sub: sub, env: env, steps: p.steps}
}

type nonResumableWorker struct {
	sub   *bsp.Subgraph
	env   bsp.Env
	steps int
}

func (w *nonResumableWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	return nil, step < w.steps
}
func (w *nonResumableWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestCheckpointRequiresResumable: checkpointing a program whose workers
// lack bsp.Resumable fails loudly.
func TestCheckpointRequiresResumable(t *testing.T) {
	subs := buildSubs(t, pathGraph(t, 40), &partition.Random{}, 2)
	_, err := bsp.Run(t.Context(), subs, &nonResumableProg{steps: 6}, bsp.Config{
		CheckpointEvery: 2,
		CheckpointSink:  func(int, *bsp.Checkpoint) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "program static is not checkpointable") {
		t.Fatalf("err = %v, want not-checkpointable", err)
	}
}

func TestResumeValidation(t *testing.T) {
	subs := buildSubs(t, pathGraph(t, 40), &partition.Random{}, 2)
	prog := &apps.CC{}
	cp := func(step int) *bsp.Checkpoint {
		return &bsp.Checkpoint{Step: step, State: graph.NewValueMatrix(0, 1)}
	}
	for name, cfg := range map[string]bsp.Config{
		"count mismatch": {Resume: []*bsp.Checkpoint{cp(2)}},
		"nil entry":      {Resume: []*bsp.Checkpoint{cp(2), nil}},
		"step disagree":  {Resume: []*bsp.Checkpoint{cp(2), cp(4)}},
		"step zero":      {Resume: []*bsp.Checkpoint{cp(0), cp(0)}},
		"bad inbox": {Resume: []*bsp.Checkpoint{
			{Step: 2, State: graph.NewValueMatrix(0, 1), InboxVals: []float64{1}},
			cp(2),
		}},
	} {
		if _, err := bsp.Run(t.Context(), subs, prog, cfg); err == nil {
			t.Fatalf("%s: expected a validation error", name)
		}
	}
}

// TestReplicaAgreementIsBitwise: "agree bit-for-bit" means the bits. Two
// replicas that both hold NaN agree (a float compare says NaN != NaN and
// failed every Aggregate run whose feature function emits one), and +0 vs
// −0 do not (a float compare let them pass).
func TestReplicaAgreementIsBitwise(t *testing.T) {
	_, subs := starGraph(t, 40, 4) // the hub is replicated on every worker
	nan := &apps.Aggregate{Layers: 1, Feature: func(v graph.VertexID, feat []float64) {
		for j := range feat {
			feat[j] = math.NaN()
		}
	}}
	res, err := bsp.Run(t.Context(), subs, nan, bsp.Config{ValueWidth: 3, VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatalf("replicas all holding NaN: %v", err)
	}
	if row, ok := res.Row(0); !ok || !math.IsNaN(row[0]) {
		t.Fatalf("hub row = %v (covered %t), want NaNs", row, ok)
	}

	vals := make([]*graph.ValueMatrix, len(subs))
	for w, sub := range subs {
		vals[w] = graph.NewValueMatrix(sub.NumLocalVertices(), 1)
	}
	hub, _ := subs[1].LocalOf(0)
	vals[1].SetScalar(int(hub), math.Copysign(0, -1))
	if _, _, err := bsp.AssembleValues(subs, vals, 1, true); err == nil ||
		!strings.Contains(err.Error(), "replicas of vertex 0 disagree") {
		t.Fatalf("+0 vs -0 replicas: err = %v, want a disagreement on vertex 0", err)
	}
	if _, _, err := bsp.AssembleValues(subs, vals, 1, false); err != nil {
		t.Fatalf("unverified assembly: %v", err)
	}
}
