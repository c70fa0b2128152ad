// Tests for the Cluster facade: OpenCluster prepares once and serves
// jobs to external worker agents, matching the single-process engine byte
// for byte, with the kill -9 failover exercised at the facade level.
package ebv_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"ebv"
)

// TestOpenClusterServesJobs opens a cluster over the standard test
// pipeline, attaches in-process agents, and checks CC and PR against
// Pipeline.Run.
func TestOpenClusterServesJobs(t *testing.T) {
	ctx := context.Background()
	c, err := sessionPipeline(t).OpenCluster(ctx, ebv.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// LIFO defers: Close first (shutting the agents down), then Wait.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer c.Close()
	if c.NumWorkers() != 4 {
		t.Fatalf("NumWorkers = %d, want 4", c.NumWorkers())
	}

	for i := 0; i < c.NumWorkers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ebv.RunClusterAgent(ctx, ebv.ClusterAgentConfig{Coordinator: c.Addr(), Logf: t.Logf})
		}()
	}

	for _, tc := range []struct {
		job  ebv.ClusterJob
		prog ebv.Program
	}{
		{ebv.ClusterJob{App: "CC"}, &ebv.CC{}},
		{ebv.ClusterJob{App: "PR", Iterations: 15}, &ebv.PageRank{Iterations: 15}},
	} {
		ref, err := sessionPipeline(t, ebv.WithRun(ebv.WithReplicaVerification(true))).Run(ctx, tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx, tc.job)
		if err != nil {
			t.Fatal(err)
		}
		if got.Attempts != 1 || got.Steps != ref.BSP.Steps || !got.Values.EqualValues(ref.BSP.Values) {
			t.Fatalf("%s: attempts=%d steps=%d (ref %d), values match=%v",
				tc.job.App, got.Attempts, got.Steps, ref.BSP.Steps, got.Values.EqualValues(ref.BSP.Values))
		}
	}
}

// TestCrossSurfaceEquivalence ties the run surfaces to each other from one
// spec: every registry app, resolved from the same name and parameters,
// runs through the one-shot facade, a Session on the in-memory mesh, a
// Session on the TCP loopback mesh, and a Cluster with in-process agents —
// and all four must agree on the step count and on every value byte.
func TestCrossSurfaceEquivalence(t *testing.T) {
	ctx := t.Context()
	weights := ebv.HashWeights(pipelineGraph(t), 11, 1, 9)
	open := func(extra ...ebv.PipelineOption) *ebv.Pipeline {
		return sessionPipeline(t, append(extra, ebv.WithEdgeWeights(weights))...)
	}
	mem, err := open().Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	tcp, err := open(ebv.UseTCPLoopback()).Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	c, err := open().OpenCluster(ctx, ebv.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer c.Close()
	for i := 0; i < c.NumWorkers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ebv.RunClusterAgent(ctx, ebv.ClusterAgentConfig{Coordinator: c.Addr(), Logf: t.Logf})
		}()
	}

	for _, job := range []ebv.ClusterJob{
		{App: "CC"},
		{App: "PR", Iterations: 12},
		{App: "SSSP", Source: 3},
		{App: "WSSSP", Source: 3},
		{App: "Aggregate", Layers: 2, ValueWidth: 8},
	} {
		t.Run(job.App, func(t *testing.T) {
			program := func() ebv.Program {
				prog, err := job.Program()
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}
			ref, err := ebv.RunBSP(ctx, mem.Prepared().Subgraphs, program(),
				ebv.RunConfig{ValueWidth: job.ValueWidth, VerifyReplicaAgreement: true})
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*ebv.Session{"session/mem": mem, "session/tcp": tcp} {
				got, err := s.Run(ctx, program(), ebv.WithValueWidth(job.ValueWidth))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Steps != ref.Steps || !got.BSP.Values.EqualValues(ref.Values) {
					t.Fatalf("%s: steps %d vs one-shot %d, values match=%v",
						name, got.Steps, ref.Steps, got.BSP.Values.EqualValues(ref.Values))
				}
			}
			got, err := c.Run(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if got.Attempts != 1 || got.Steps != ref.Steps || !got.Values.EqualValues(ref.Values) {
				t.Fatalf("cluster: attempts=%d steps %d vs one-shot %d, values match=%v",
					got.Attempts, got.Steps, ref.Steps, got.Values.EqualValues(ref.Values))
			}
		})
	}
}

// TestClusterValuesBitExact ships values a lossy or text codec would not
// survive through the cluster's result frame and requires every bit back:
// WSSSP over weights that are subnormal, huge or infinite leaves subnormal
// sums and +Inf in the value rows, and Cluster.Run must return exactly
// ebv.RunBSP's bit patterns. (No registry program yields NaN — replica
// verification would reject it — so NaN payloads, −0 and −Inf are covered
// at the frame level, internal/cluster TestDoneFrameBitExact.)
func TestClusterValuesBitExact(t *testing.T) {
	ctx := t.Context()
	g := pipelineGraph(t)
	weights := ebv.HashWeights(g, 11, 1, 9)
	for i := range weights {
		switch {
		case i%5 == 0:
			weights[i] *= math.SmallestNonzeroFloat64
		case i%5 == 1:
			weights[i] *= 1e300
		case i%7 == 2:
			weights[i] = math.Inf(1)
		}
	}
	c, err := sessionPipeline(t, ebv.WithEdgeWeights(weights)).OpenCluster(ctx, ebv.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer c.Close()
	for i := 0; i < c.NumWorkers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ebv.RunClusterAgent(ctx, ebv.ClusterAgentConfig{Coordinator: c.Addr(), Logf: t.Logf})
		}()
	}
	job := ebv.ClusterJob{App: "WSSSP", Source: 3}
	prog, err := job.Program()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ebv.RunBSP(ctx, c.Prepared().Subgraphs, prog, ebv.RunConfig{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != ref.Steps || len(got.Values.Data) != len(ref.Values.Data) {
		t.Fatalf("steps %d vs %d, %d vs %d values", got.Steps, ref.Steps, len(got.Values.Data), len(ref.Values.Data))
	}
	var subnormal, inf int
	for i, want := range ref.Values.Data {
		if math.Float64bits(got.Values.Data[i]) != math.Float64bits(want) {
			t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(got.Values.Data[i]), math.Float64bits(want))
		}
		if math.IsInf(want, 1) {
			inf++
		} else if want != 0 && want < 0x1p-1022 {
			subnormal++
		}
	}
	if subnormal == 0 || inf == 0 {
		t.Fatalf("the weights no longer exercise the frame: %d subnormal and %d +Inf values", subnormal, inf)
	}
}

// TestOpenClusterFailover kills one in-process agent mid-PageRank; with a
// checkpoint directory set the job must recover and match the clean run.
func TestOpenClusterFailover(t *testing.T) {
	ctx := context.Background()
	c, err := sessionPipeline(t).OpenCluster(ctx, ebv.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer c.Close()

	agents := make([]*ebv.ClusterAgent, c.NumWorkers()+1) // one hot standby
	for i := range agents {
		agents[i] = ebv.NewClusterAgent(ebv.ClusterAgentConfig{Coordinator: c.Addr(), Logf: t.Logf})
		wg.Add(1)
		go func(a *ebv.ClusterAgent) {
			defer wg.Done()
			_ = a.Run(ctx)
		}(agents[i])
	}

	job := ebv.ClusterJob{
		App: "PR", Iterations: 200,
		CheckpointDir: t.TempDir(), CheckpointEvery: 6,
	}
	ref, err := sessionPipeline(t, ebv.WithRun(ebv.WithReplicaVerification(true))).Run(ctx, &ebv.PageRank{Iterations: 200})
	if err != nil {
		t.Fatal(err)
	}

	// Kill an agent once checkpoints are flowing. Any registered agent
	// works: either a partition owner dies (failover) or the standby does
	// (nothing to recover, but the job must still finish in one attempt).
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(30 * time.Second)
		for c.NumRegistered() == len(agents) {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		time.Sleep(30 * time.Millisecond) // let the job get past a few epochs
		agents[1].Kill()
	}()

	got, err := c.Run(ctx, job)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != ref.BSP.Steps || !got.Values.EqualValues(ref.BSP.Values) {
		t.Fatalf("recovered run differs: steps %d vs %d", got.Steps, ref.BSP.Steps)
	}
	t.Logf("PR finished after %d attempt(s), restored from epoch %d", got.Attempts, got.RestoredFrom)
}
