package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

func testSubs(t *testing.T, g *graph.Graph, k int) []*bsp.Subgraph {
	t.Helper()
	a, err := (&partition.Random{}).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func testPathGraph(t *testing.T, n int) *graph.Graph {
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

func testPowerlaw(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 2000, NumEdges: 9000, Eta: 2.2, Directed: true, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testCluster is one in-process coordinator plus its agent goroutines.
type testCluster struct {
	t     *testing.T
	coord *Coordinator
	mu    sync.Mutex
	wg    sync.WaitGroup
	errs  map[*Agent]error
}

func newTestCluster(t *testing.T, subs []*bsp.Subgraph, hbTimeout time.Duration) *testCluster {
	t.Helper()
	coord, err := NewCoordinator(context.Background(), Config{
		Subgraphs:        subs,
		HeartbeatTimeout: hbTimeout,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, coord: coord, errs: make(map[*Agent]error)}
	t.Cleanup(func() {
		_ = coord.Close()
		tc.wg.Wait()
	})
	return tc
}

// startAgent launches one agent and waits until the coordinator has
// registered it, so callers control registration (and thus partition
// assignment) order. setup functions adjust the agent before it runs.
// Test goroutine only (it may t.Fatal).
func (tc *testCluster) startAgent(ctx context.Context, setup ...func(*Agent)) *Agent {
	tc.t.Helper()
	a := tc.launchAgent(ctx, setup...)
	if err := tc.waitRegistered(a); err != nil {
		tc.t.Fatal(err)
	}
	return a
}

// launchAgent starts one agent's Run goroutine without waiting for it.
func (tc *testCluster) launchAgent(ctx context.Context, setup ...func(*Agent)) *Agent {
	a := NewAgent(AgentConfig{
		Coordinator:       tc.coord.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
		Logf:              tc.t.Logf,
	})
	for _, fn := range setup {
		fn(a)
	}
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		err := a.Run(ctx)
		tc.mu.Lock()
		tc.errs[a] = err
		tc.mu.Unlock()
	}()
	return a
}

// waitRegistered waits until the coordinator holds a live worker entry for
// a's own control connection. (A registered-count delta would race other
// workers de-registering at the same time.)
func (tc *testCluster) waitRegistered(a *Agent) error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		a.mu.Lock()
		conn := a.conn
		a.mu.Unlock()
		if conn == nil {
			continue
		}
		tc.coord.mu.Lock()
		for _, w := range tc.coord.workers {
			if w.conn.RemoteAddr().String() == conn.LocalAddr().String() {
				tc.coord.mu.Unlock()
				return nil
			}
		}
		tc.coord.mu.Unlock()
	}
	return fmt.Errorf("agent did not register")
}

func (tc *testCluster) agentErr(a *Agent) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.errs[a]
}

// meshOf reads the agent's node and the number of the mesh it is wired
// for.
func meshOf(a *Agent) (*transport.MeshNode, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.node, a.mesh
}

// TestClusterCleanRuns serves two different jobs over one deployment of
// three agents and checks both against the single-process engine. Both
// run on one mesh: each agent wires its node once.
func TestClusterCleanRuns(t *testing.T) {
	const k = 3
	pl := testPowerlaw(t)
	subs := testSubs(t, pl, k)
	ctx := context.Background()

	tc := newTestCluster(t, subs, 0)
	agents := make([]*Agent, k)
	for i := range agents {
		agents[i] = tc.startAgent(ctx)
	}

	ccRef, err := bsp.Run(t.Context(), subs, mustProgram(t, JobSpec{App: "CC"}), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	prSpec := JobSpec{App: "PR", Iterations: 20}
	prRef, err := bsp.Run(t.Context(), subs, mustProgram(t, prSpec), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}

	// A spec no worker could run fails like it does on every other surface
	// — the registry's and the engine's own errors — and before it consumes
	// a job id: the first real job below is still job 1.
	for _, bad := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{App: "nope"}, "unknown app"},
		{JobSpec{App: "SSSP", Source: -1}, "source -1 out of range"},
		{JobSpec{App: "WSSSP", Source: 1 << 32}, "source 4294967296 out of range"},
		{JobSpec{App: "PR", Damping: 5}, "damping 5 out of range"},
		{JobSpec{App: "PR", Damping: math.NaN()}, "damping NaN out of range"},
		{JobSpec{App: "PR", Iterations: -3}, "iterations -3 out of range"},
		{JobSpec{App: "Aggregate", Layers: -1}, "layers -1 out of range"},
		{JobSpec{App: "CC", ValueWidth: -3}, "value width -3 invalid"},
		{JobSpec{App: "CC", ValueWidth: transport.MaxValueWidth + 1}, "exceeds the transport cap"},
	} {
		if _, err := tc.coord.Run(ctx, bad.spec); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("%+v: err = %v, want %q", bad.spec, err, bad.want)
		}
	}

	cc, err := tc.coord.Run(ctx, JobSpec{App: "CC"})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Job != 1 || cc.Attempts != 1 || cc.RestoredFrom != -1 || cc.Steps != ccRef.Steps || !cc.Values.EqualValues(ccRef.Values) {
		t.Fatalf("CC: job=%d attempts=%d restored=%d steps=%d (ref %d), values match=%v",
			cc.Job, cc.Attempts, cc.RestoredFrom, cc.Steps, ccRef.Steps, cc.Values.EqualValues(ccRef.Values))
	}
	nodes := make([]*transport.MeshNode, k)
	for i, a := range agents {
		var mesh int
		if nodes[i], mesh = meshOf(a); nodes[i] == nil || mesh != 1 {
			t.Fatalf("agent %d after CC: node %p on mesh %d, want a node on mesh 1", i, nodes[i], mesh)
		}
	}
	pr, err := tc.coord.Run(ctx, prSpec)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Steps != prRef.Steps || !pr.Values.EqualValues(prRef.Values) {
		t.Fatalf("PR: steps=%d (ref %d), values differ", pr.Steps, prRef.Steps)
	}
	for i, a := range agents {
		if node, mesh := meshOf(a); node != nodes[i] || mesh != 1 {
			t.Fatalf("agent %d rewired between clean jobs: node %p → %p, mesh 1 → %d", i, nodes[i], node, mesh)
		}
	}
}

// TestClusterMeshCutBetweenJobs: a node that dies between two jobs fails
// the next job's first attempt, at open on the dead mesh; the retry runs
// on a new mesh that every agent rewires, and its values are the
// single-process engine's.
func TestClusterMeshCutBetweenJobs(t *testing.T) {
	const k = 3
	subs := testSubs(t, testPowerlaw(t), k)
	ctx := context.Background()
	tc := newTestCluster(t, subs, 0)
	agents := make([]*Agent, k)
	for i := range agents {
		agents[i] = tc.startAgent(ctx)
	}
	spec := JobSpec{App: "CC"}
	ref, err := bsp.Run(t.Context(), subs, mustProgram(t, spec), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.coord.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	old := make([]*transport.MeshNode, k)
	for i, a := range agents {
		old[i], _ = meshOf(a)
	}
	_ = old[1].Close()

	res, err := tc.coord.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (the open on the cut mesh, then the rewired retry)", res.Attempts)
	}
	if res.Steps != ref.Steps || !res.Values.EqualValues(ref.Values) {
		t.Fatalf("retry on the rewired mesh differs: steps %d vs %d", res.Steps, ref.Steps)
	}
	for i, a := range agents {
		if node, mesh := meshOf(a); node == nil || node == old[i] || mesh != 2 {
			t.Fatalf("agent %d after the retry: node %p (was %p) on mesh %d, want a new node on mesh 2", i, node, old[i], mesh)
		}
	}
}

// TestAssignBeforePrepare pins the assign/open ordering: a worker whose
// partition ownership is published but whose assign frame is still being
// written must not be in a job's roster — the open would overtake the
// shard, the agent would answer "no partition assigned", and the job would
// burn attempts. The seam holds the write while a job is submitted; the job
// must wait for the assign and succeed on attempt 1.
func TestAssignBeforePrepare(t *testing.T) {
	subs := testSubs(t, testPathGraph(t, 60), 1)
	ctx := context.Background()
	tc := newTestCluster(t, subs, 0)
	release := make(chan struct{})
	tc.coord.holdAssign = func() { <-release }
	tc.startAgent(ctx) // registered and owner of partition 0; its assign is held

	type outcome struct {
		res *JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := tc.coord.Run(ctx, JobSpec{App: "CC"})
		done <- outcome{res, err}
	}()
	// Wait for attempt 1 to be in flight, then give an open that wrongly
	// went out time to come back failed. The fixed coordinator passes for
	// any timing here: it cannot pick a roster until release is closed.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		tc.coord.mu.Lock()
		inFlight := tc.coord.listener != nil
		tc.coord.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started an attempt")
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (a prepare overtook the held assign)", out.res.Attempts)
	}
}

func mustProgram(t *testing.T, spec JobSpec) bsp.Program {
	t.Helper()
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// killWhenCheckpointed waits for the first COMPLETE checkpoint epoch (all
// workers' files landed) and then kills the victim — a kill -9 equivalent
// mid-run. Killing on the first file alone would race the victim's own
// write of that epoch and sometimes leave nothing to restore.
func killWhenCheckpointed(t *testing.T, dir string, job, workers int, victim *Agent) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, ok, err := SelectRestoreEpoch(dir, job, workers); err == nil && ok {
				victim.Kill()
				return
			}
			if time.Now().After(deadline) {
				t.Error("no complete checkpoint epoch appeared before the deadline")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return done
}

// TestClusterFailoverStandby is the headline guarantee: kill -9 one
// worker mid-CC with a hot standby registered; the job completes with
// values byte-identical to an uninterrupted run.
func TestClusterFailoverStandby(t *testing.T) {
	const k = 3
	path := testPathGraph(t, 1200) // long propagation: hundreds of supersteps
	subs := testSubs(t, path, k)
	ctx := context.Background()

	tc := newTestCluster(t, subs, 0)
	agents := make([]*Agent, 4) // 3 owners + 1 hot standby
	for i := range agents {
		agents[i] = tc.startAgent(ctx)
	}
	victim := agents[1] // registration order == assignment order: owns partition 1

	spec := JobSpec{
		App:             "CC",
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 5,
	}
	ref, err := bsp.Run(t.Context(), subs, mustProgram(t, spec), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}

	killed := killWhenCheckpointed(t, spec.CheckpointDir, 1, k, victim)
	res, err := tc.coord.Run(ctx, spec)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (the kill must have interrupted the job)", res.Attempts)
	}
	if res.RestoredFrom < 1 {
		t.Fatalf("restoredFrom = %d, want a checkpoint epoch", res.RestoredFrom)
	}
	if res.Steps != ref.Steps {
		t.Fatalf("steps = %d, want %d", res.Steps, ref.Steps)
	}
	if !res.Values.EqualValues(ref.Values) {
		t.Fatal("recovered values differ from uninterrupted run")
	}
	if err := tc.agentErr(victim); err != ErrAgentKilled {
		t.Fatalf("victim err = %v, want ErrAgentKilled", err)
	}
	t.Logf("CC recovered: %d attempts, restored from epoch %d of %d steps", res.Attempts, res.RestoredFrom, res.Steps)
}

// TestClusterFailoverReplacement kills a PageRank worker with NO standby:
// the retry blocks until a replacement process registers, inherits the
// dead worker's partition, and the job still finishes bit-identically.
func TestClusterFailoverReplacement(t *testing.T) {
	const k = 3
	pl := testPowerlaw(t)
	subs := testSubs(t, pl, k)
	ctx := context.Background()

	tc := newTestCluster(t, subs, 0)
	agents := make([]*Agent, k)
	for i := range agents {
		agents[i] = tc.startAgent(ctx)
	}
	victim := agents[2]

	spec := JobSpec{
		App:             "PR",
		Iterations:      150,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 4,
	}
	ref, err := bsp.Run(t.Context(), subs, mustProgram(t, spec), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}

	killed := killWhenCheckpointed(t, spec.CheckpointDir, 1, k, victim)
	// The replacement registers only after the victim is gone, so attempt
	// 2's roster wait actually exercises the vacancy.
	replaced := make(chan error, 1)
	go func() {
		<-killed
		replaced <- tc.waitRegistered(tc.launchAgent(ctx))
	}()
	res, err := tc.coord.Run(ctx, spec)
	if rerr := <-replaced; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 || res.RestoredFrom < 1 {
		t.Fatalf("attempts = %d, restoredFrom = %d: kill did not interrupt the job", res.Attempts, res.RestoredFrom)
	}
	if res.Steps != ref.Steps || !res.Values.EqualValues(ref.Values) {
		t.Fatalf("recovered run differs: steps %d vs %d", res.Steps, ref.Steps)
	}
	t.Logf("PR recovered: %d attempts, restored from epoch %d of %d steps", res.Attempts, res.RestoredFrom, res.Steps)
}

// TestRetryWaitsForEveryWorker: a failed attempt is retried only once
// every roster worker has answered, reported failure or died. Worker 0
// fails its open at once while worker 1 stays silent and then dies; the
// retry must not open on worker 1 — a worker whose death was still
// unnoticed would hold its peers' wiring until their dial timeout — but
// on the standby promoted into its partition.
func TestRetryWaitsForEveryWorker(t *testing.T) {
	subs := testSubs(t, testPathGraph(t, 20), 2)
	tc := newTestCluster(t, subs, 0)
	conns := make([]net.Conn, 3) // owners of partitions 0 and 1, then a standby
	for i := range conns {
		conn, err := net.Dial("tcp", tc.coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var mu sync.Mutex
		if err := writeMsg(&mu, conn, msgHello, helloMsg{DataAddr: "127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); tc.coord.NumRegistered() < i+1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("scripted worker %d did not register", i)
			}
		}
		conns[i] = conn
	}
	var opens [3]atomic.Int32
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wmu sync.Mutex
			for {
				typ, payload, err := readFrame(conn)
				if err != nil {
					return
				}
				var m openMsg
				if typ != msgOpen || decodeMsg(payload, &m) != nil {
					continue
				}
				if opens[i].Add(1); i != 1 {
					_ = writeMsg(&wmu, conn, msgFailed, failedMsg{Job: m.Job, Attempt: m.Attempt, Err: "scripted failure"})
					continue
				}
				// Silent well past worker 0's failure; count a retry's open
				// if one arrived meanwhile, then die.
				time.Sleep(300 * time.Millisecond)
				_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				if typ, _, err := readFrame(conn); err == nil && typ == msgOpen {
					opens[i].Add(1)
				}
				_ = conn.Close()
				return
			}
		}()
	}
	if _, err := tc.coord.Run(context.Background(), JobSpec{App: "CC", MaxAttempts: 2}); err == nil {
		t.Fatal("a job whose every open fails succeeded")
	}
	for _, c := range conns {
		_ = c.Close()
	}
	wg.Wait()
	if got := [3]int32{opens[0].Load(), opens[1].Load(), opens[2].Load()}; got != [3]int32{2, 1, 1} {
		t.Fatalf("opens received per scripted worker = %v, want [2 1 1]: the retry went out before worker 1 settled", got)
	}
}

// TestClusterHeartbeatDetector covers death the connection does not
// announce: a registered worker that goes silent (but keeps its socket
// open) is declared dead by heartbeat timeout, its partition is handed to
// a live agent, and the job completes.
func TestClusterHeartbeatDetector(t *testing.T) {
	subs := testSubs(t, testPathGraph(t, 60), 1)
	ctx := context.Background()

	tc := newTestCluster(t, subs, 400*time.Millisecond)

	// A worker that registers and then never speaks again.
	conn, err := net.Dial("tcp", tc.coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var silentMu sync.Mutex
	if err := writeMsg(&silentMu, conn, msgHello, helloMsg{DataAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.coord.NumRegistered() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker did not register")
		}
		time.Sleep(time.Millisecond)
	}

	tc.startAgent(ctx) // hot standby behind the silent owner

	res, err := tc.coord.Run(ctx, JobSpec{App: "CC"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (open must stall on the silent worker first)", res.Attempts)
	}
	ref, err := bsp.Run(t.Context(), subs, mustProgram(t, JobSpec{App: "CC"}), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Values.EqualValues(ref.Values) {
		t.Fatal("values differ")
	}
}

// flipListener hands out connections that flip one bit, once, at a fixed
// offset of the first stream to reach it — a single-bit wire corruption
// between two agents.
type flipListener struct {
	transport.Listener
	offset  int64
	flipped *atomic.Bool
}

func (l flipListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &flipConn{Conn: conn, l: l}, nil
}

type flipConn struct {
	net.Conn
	l    flipListener
	read int64 // only the connection's single reader touches it
}

func (c *flipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if at := c.l.offset - c.read; at >= 0 && at < int64(n) && !c.l.flipped.Swap(true) {
		p[at] ^= 0x10
	}
	c.read += int64(n)
	return n, err
}

// TestClusterDataFrameCorruptionDetected: the agent↔agent data plane is
// CRC-checked. One bit flipped in the first data frame worker 0 sends
// worker 1 must fail that attempt loudly at worker 1 — naming the CRC and
// the peer — instead of computing on garbage, and the retry must complete
// byte-identical to the single-process engine.
func TestClusterDataFrameCorruptionDetected(t *testing.T) {
	const k = 3
	subs := testSubs(t, testPowerlaw(t), k)
	ctx := context.Background()
	tc := newTestCluster(t, subs, 0)

	var (
		flipped atomic.Bool
		logMu   sync.Mutex
		logs    []string
	)
	for i := 0; i < k; i++ {
		if i != 1 {
			tc.startAgent(ctx)
			continue
		}
		// Worker 1 accepts exactly one data connection per mesh, from
		// worker 0: an 8-byte hello, then frames. Offset 8+34 is the first
		// column byte of the first frame (step 0 of CC always carries rows).
		tc.startAgent(ctx, func(a *Agent) {
			a.wrapDataListener = func(ln transport.Listener) transport.Listener {
				return flipListener{Listener: ln, offset: 8 + 34, flipped: &flipped}
			}
			a.logf = func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
				t.Logf(format, args...)
			}
		})
	}

	ref, err := bsp.Run(t.Context(), subs, mustProgram(t, JobSpec{App: "CC"}), bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tc.coord.Run(ctx, JobSpec{App: "CC"})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped.Load() {
		t.Fatal("the corruption never fired")
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (the corrupted attempt, then a clean one)", res.Attempts)
	}
	if res.Steps != ref.Steps || !res.Values.EqualValues(ref.Values) {
		t.Fatalf("recovered run differs: steps %d vs %d", res.Steps, ref.Steps)
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "attempt 1 failed") &&
			strings.Contains(line, "CRC") && strings.Contains(line, "at worker 1 from 0") {
			return
		}
	}
	t.Fatalf("worker 1 did not report a CRC failure naming its peer; its log:\n%s", strings.Join(logs, "\n"))
}

// TestControlFrameTamperDetected closes the loop on the control codec in
// situ: a registration frame with a flipped payload byte must not
// register a worker (the coordinator drops the connection instead).
func TestControlFrameTamperDetected(t *testing.T) {
	subs := testSubs(t, testPathGraph(t, 20), 1)
	tc := newTestCluster(t, subs, 0)

	var frame bytes.Buffer
	var mu sync.Mutex
	if err := writeMsg(&mu, &frame, msgHello, helloMsg{DataAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	b := frame.Bytes()
	b[len(b)-7] ^= 0x01 // corrupt the gob payload under the CRC

	conn, err := net.Dial("tcp", tc.coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	// The coordinator must hang up on us without registering.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected the coordinator to drop the tampered connection")
	}
	if n := tc.coord.NumRegistered(); n != 0 {
		t.Fatalf("tampered hello registered %d workers", n)
	}
}

// TestHelloDataAddrChecked: a hello whose data address peers could not
// dial does not register — the coordinator hangs up instead of putting
// the worker in a roster whose every wiring would wait on it.
func TestHelloDataAddrChecked(t *testing.T) {
	subs := testSubs(t, testPathGraph(t, 20), 1)
	tc := newTestCluster(t, subs, 0)
	for _, addr := range []string{"", "nohost", "127.0.0.1:"} {
		conn, err := net.Dial("tcp", tc.coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		if err := writeMsg(&mu, conn, msgHello, helloMsg{DataAddr: addr}); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
			t.Fatalf("data address %q: connection kept (read err = %v)", addr, err)
		}
		_ = conn.Close()
		if n := tc.coord.NumRegistered(); n != 0 {
			t.Fatalf("data address %q registered %d workers", addr, n)
		}
	}
}

// TestCoordinatorParentContextCancel pins the coordinator's lifecycle
// contract (the ctxflow fix): NewCoordinator derives its internal context
// from the caller's, so canceling the parent tears the coordinator down
// like Close — a Run call fails promptly with "coordinator closed"
// instead of waiting forever for a worker roster.
func TestCoordinatorParentContextCancel(t *testing.T) {
	subs := testSubs(t, testPathGraph(t, 64), 2)
	ctx, cancel := context.WithCancel(context.Background())
	coord, err := NewCoordinator(ctx, Config{Subgraphs: subs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cancel()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background(), JobSpec{App: "CC"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded under a canceled lifecycle context")
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Fatalf("Run error = %v, want a coordinator-closed error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not observe the canceled lifecycle context")
	}
}
