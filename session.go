package ebv

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/live"
	"ebv/internal/transport"
)

// ErrSessionClosed reports a Run on (or interrupted by) a closed Session.
var ErrSessionClosed = errors.New("ebv: session closed")

// Session is the prepare-once/serve-many form of the Pipeline: Open runs
// load → partition → metrics → build exactly once and wires a persistent
// transport deployment; every Run call is then a *job* executed over the
// shared subgraphs, paying only the BSP execution cost. This is how a
// PowerGraph/PowerLyra-style deployment serves traffic — the expensive EBV
// partition is amortized over every query instead of one batch run.
//
//	s, err := ebv.NewPipeline(
//	    ebv.FromEdgeList("graph.txt"),
//	    ebv.Subgraphs(16),
//	).Open(ctx)
//	// handle err
//	defer s.Close()
//	cc, err := s.Run(ctx, &ebv.CC{})
//	pr, err := s.Run(ctx, &ebv.PageRank{Iterations: 10})
//
// Run is safe for concurrent callers: each call opens a job-scoped
// exchange on the deployment (its own value width and step cap via
// RunOptions), and interleaved jobs' message batches never cross — on the
// in-memory router and on the TCP loopback mesh alike. Close tears the
// deployment down; jobs blocked in a collective exchange are released and
// fail with ErrSessionClosed.
type Session struct {
	prepared *PipelineResult
	dep      *bsp.Deployment
	runOpts  []RunOption
	progress func(PipelineProgress)
	liveCfg  live.Config

	mu         sync.Mutex // guards closed, nextJob, jobs, jobsServed, totalRun
	closed     bool
	nextJob    int
	jobs       []JobStats // completion-order ring, trimmed to jobStatsRetention
	jobsServed int        // total ever, survives trimming
	totalRun   time.Duration
	emitMu     sync.Mutex // serializes progress callbacks across concurrent jobs

	liveMu    sync.Mutex // serializes Apply (lazy live-state init)
	liveState *live.State
}

// JobResult is the outcome of one Session.Run job. The tagged fields form
// a stable JSON surface (internal/serve returns them in job responses
// without reaching into internal/bsp); BSP carries the full execution
// result — value matrix, per-worker stats — and is deliberately excluded
// from the JSON form.
type JobResult struct {
	// Job is the session-scoped job number (1-based, in start order).
	Job int `json:"job"`
	// Program is the executed program's name.
	Program string `json:"program"`
	// ValueWidth is the width the job ran at.
	ValueWidth int `json:"value_width"`
	// Steps is the number of supersteps the job executed.
	Steps int `json:"steps"`
	// Counts is the job's message accounting: the rows sent and the rows
	// delivered, which are equal (emitted is filled from wire).
	Counts MessageCounts `json:"message_counts"`
	// BSP is the execution result (values, steps, per-worker stats).
	BSP *RunResult `json:"-"`
	// RunTime is the job's wall-clock time inside the session (execution
	// only — load/partition/build were paid once by Open). Marshals as
	// nanoseconds.
	RunTime time.Duration `json:"run_time"`
}

// JobStats is the per-job accounting a Session keeps (see SessionStats).
// JSON tags are stable lowercase; durations marshal as nanoseconds.
type JobStats struct {
	Job        int    `json:"job"`
	Program    string `json:"program"`
	ValueWidth int    `json:"value_width"`
	Steps      int    `json:"steps"`
	// Messages counts the rows that crossed the exchange (the wire count,
	// Result.TotalMessages); Counts repeats it with the delivered total.
	Messages int64         `json:"messages"`
	Counts   MessageCounts `json:"message_counts"`
	RunTime  time.Duration `json:"run_time"`
}

// SessionStats is a snapshot of a Session's accounting: the one-time
// preparation cost and every served job's latency, from which the
// amortization story (first job vs steady state) can be read directly.
type SessionStats struct {
	// JobsServed counts every successfully completed job over the
	// session's lifetime — it keeps counting after Jobs is trimmed to
	// the retention cap, so it is the total-served counter of record.
	JobsServed int `json:"jobs_served"`
	// JobsRetained is len(Jobs): the rows still inside the retention
	// window (== JobsServed until the ring wraps).
	JobsRetained int `json:"jobs_retained"`
	// JobsRetention is the ring capacity Jobs is trimmed to (1024).
	JobsRetention int `json:"jobs_retention"`
	// LoadTime, PartitionTime and BuildTime are the one-time preparation
	// stage costs paid by Open (JSON: nanoseconds, stable lowercase tags).
	LoadTime      time.Duration `json:"load_time"`
	PartitionTime time.Duration `json:"partition_time"`
	BuildTime     time.Duration `json:"build_time"`
	// PrepareTime is their sum — the cost every job would re-pay without
	// the session.
	PrepareTime time.Duration `json:"prepare_time"`
	// TotalRunTime sums every served job's wall-clock time, trimmed
	// rows included.
	TotalRunTime time.Duration `json:"total_run_time"`
	// Jobs lists the retained jobs in completion order (the newest
	// JobsRetention of them).
	Jobs []JobStats `json:"jobs"`
}

// FirstRunTime returns the first retained job's wall time (cold caches,
// lazily-created frame writers) — compare with SteadyStateRunTime.
func (s SessionStats) FirstRunTime() time.Duration {
	if len(s.Jobs) == 0 {
		return 0
	}
	return s.Jobs[0].RunTime
}

// SteadyStateRunTime returns the mean wall time of the jobs after the
// first (0 with fewer than two jobs) — the session's amortized per-job
// latency.
func (s SessionStats) SteadyStateRunTime() time.Duration {
	if len(s.Jobs) < 2 {
		return 0
	}
	var total time.Duration
	for _, j := range s.Jobs[1:] {
		total += j.RunTime
	}
	return total / time.Duration(len(s.Jobs)-1)
}

// Open prepares the pipeline once — load, partition, metrics, build — and
// returns a Session serving jobs over the prepared subgraphs and a
// persistent transport deployment (in-memory by default, a TCP loopback
// mesh under UseTCPLoopback). The caller must Close the session.
func (p *Pipeline) Open(ctx context.Context) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Resolved first: a typo or a bad width must not pay a load and
	// partition, nor leave a wired mesh behind.
	if _, err := bsp.NewConfig(p.runOpts...).Width(); err != nil {
		return nil, fmt.Errorf("ebv: pipeline: %w", err)
	}
	policy, err := live.PolicyByName(p.mutationPolicy)
	if err != nil {
		return nil, fmt.Errorf("ebv: pipeline: %w", err)
	}
	res, err := p.prepare(ctx, true)
	if err != nil {
		return nil, err
	}
	var mesh transport.Deployment
	if p.useTCP {
		mesh, err = transport.NewTCPMeshDeployment(ctx, res.Assignment.K)
		if err != nil {
			return nil, fmt.Errorf("ebv: pipeline tcp deployment: %w", err)
		}
	}
	dep, err := bsp.NewDeployment(res.Subgraphs, mesh)
	if err != nil {
		if mesh != nil {
			_ = mesh.Close()
		}
		return nil, fmt.Errorf("ebv: pipeline deployment: %w", err)
	}
	return &Session{
		prepared: res,
		dep:      dep,
		runOpts:  slices.Clone(p.runOpts),
		progress: p.progress,
		liveCfg:  live.Config{Policy: policy, VerifyPatches: p.verifyMutations},
	}, nil
}

// jobStatsRetention is the JobStats ring capacity: SessionStats.Jobs
// keeps the newest jobStatsRetention rows, so a session serving millions
// of jobs keeps O(1) accounting while JobsServed and TotalRunTime count
// every job.
const jobStatsRetention = 1024

// Prepared returns the artifacts Open produced: the graph, assignment,
// metrics, subgraphs and per-stage timings (BSP is nil — jobs return their
// results from Run).
func (s *Session) Prepared() *PipelineResult { return s.prepared }

// emit reports a progress event, serialized across concurrent jobs so the
// callback never races with itself.
func (s *Session) emit(ev PipelineProgress) {
	if s.progress == nil {
		return
	}
	s.emitMu.Lock()
	s.progress(ev)
	s.emitMu.Unlock()
}

// Run executes prog as one job of the session. Safe for concurrent
// callers; each job takes its own RunOptions (WithValueWidth, WithMaxSteps),
// defaulting to the pipeline's. The session's
// progress callback observes a StageRun start/done pair per job, tagged
// with the job number.
func (s *Session) Run(ctx context.Context, prog Program, opts ...RunOption) (*JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if prog == nil {
		return nil, errors.New("ebv: session: nil program")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.nextJob++
	id := s.nextJob
	s.mu.Unlock()

	cfg := bsp.NewConfig(append(slices.Clone(s.runOpts), opts...)...)

	detail := fmt.Sprintf("%s (job %d)", prog.Name(), id)
	s.emit(PipelineProgress{Stage: StageRun, Detail: detail})
	start := time.Now()
	out, err := s.dep.Run(ctx, prog, cfg)
	took := time.Since(start)
	if err != nil {
		if errors.Is(err, bsp.ErrDeploymentClosed) {
			return nil, fmt.Errorf("ebv: session job %d (%s): %w", id, prog.Name(), ErrSessionClosed)
		}
		return nil, fmt.Errorf("ebv: session job %d (%s): %w", id, prog.Name(), err)
	}

	edges := int64(s.prepared.Graph.NumEdges())
	ev := PipelineProgress{Stage: StageRun, Done: true, Elapsed: took, Detail: detail, Items: edges}
	if edges > 0 && took > 0 {
		ev.Throughput = float64(edges) / took.Seconds()
	}
	s.emit(ev)

	jr := &JobResult{
		Job:        id,
		Program:    prog.Name(),
		ValueWidth: out.Values.Width,
		Steps:      out.Steps,
		Counts:     out.MessageCounts(),
		BSP:        out,
		RunTime:    took,
	}
	s.mu.Lock()
	s.jobs = append(s.jobs, JobStats{
		Job:        id,
		Program:    jr.Program,
		ValueWidth: jr.ValueWidth,
		Steps:      out.Steps,
		Messages:   out.TotalMessages(),
		Counts:     jr.Counts,
		RunTime:    took,
	})
	s.jobsServed++
	s.totalRun += took
	if len(s.jobs) > jobStatsRetention {
		s.jobs = slices.Delete(s.jobs, 0, len(s.jobs)-jobStatsRetention)
	}
	s.mu.Unlock()
	return jr, nil
}

// Stats returns a snapshot of the session's accounting.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		JobsServed:    s.jobsServed,
		JobsRetained:  len(s.jobs),
		JobsRetention: jobStatsRetention,
		LoadTime:      s.prepared.LoadTime,
		PartitionTime: s.prepared.PartitionTime,
		BuildTime:     s.prepared.BuildTime,
		TotalRunTime:  s.totalRun,
		Jobs:          slices.Clone(s.jobs),
	}
	st.PrepareTime = st.LoadTime + st.PartitionTime + st.BuildTime
	return st
}

// Apply validates and applies one mutation batch — edge inserts assigned
// online by the session's MutationPolicy, deletes matched against the
// current edge list — atomically between jobs: the affected subgraphs are
// patched incrementally (rebuilt only under live.Config.ForceRebuild) and
// swapped into the deployment as a new epoch. Jobs already running finish
// on the snapshot they started with; jobs admitted afterwards see the new
// graph.
// A batch either fully applies or fully rejects (ErrMutationRejected);
// on rejection nothing changed. Safe for concurrent use with Run; Apply
// calls serialize with each other.
func (s *Session) Apply(ctx context.Context, muts []Mutation) (*ApplyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	// The mutation layer attaches lazily on first use (the prepared
	// artifacts stay authoritative for frozen sessions).
	if s.liveState == nil {
		st, err := live.NewState(s.prepared.Graph, s.prepared.Assignment, s.prepared.Subgraphs, s.liveCfg)
		if err != nil {
			return nil, err
		}
		s.liveState = st
	}
	res, err := s.liveState.Apply(ctx, muts, s.dep.Swap)
	if errors.Is(err, bsp.ErrDeploymentClosed) {
		return nil, fmt.Errorf("ebv: session apply: %w", ErrSessionClosed)
	}
	return res, err
}

// Epoch returns the session's current graph epoch: 0 until the first
// Apply, then the deployment epoch of the newest committed batch.
func (s *Session) Epoch() uint64 { return s.dep.Epoch() }

// LiveStats returns the mutation layer's counters (zero value until the
// first Apply).
func (s *Session) LiveStats() LiveStats {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.liveState == nil {
		return LiveStats{}
	}
	return s.liveState.Stats()
}

// LiveSnapshot returns the session's current graph, a copy of its edge
// assignment and their epoch — for Apply-less sessions these are the
// prepared artifacts at epoch 0. The graph is immutable once published:
// later Applies build new ones.
func (s *Session) LiveSnapshot() (*Graph, *Assignment, uint64) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.liveState == nil {
		return s.prepared.Graph, s.prepared.Assignment, 0
	}
	return s.liveState.Snapshot()
}

// Close tears the session's deployment down. In-flight jobs are released
// from their exchanges and fail with ErrSessionClosed; subsequent Run
// calls fail immediately. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.dep.Close()
}
