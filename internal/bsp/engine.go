package bsp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ebv/internal/graph"
	"ebv/internal/transport"
)

// Program is a subgraph-centric application: it instantiates one
// WorkerProgram per subgraph.
type Program interface {
	// Name returns the application name ("CC", "PR", "SSSP").
	Name() string
	// NewWorker binds the program to one subgraph under the run's
	// execution environment (value width, batch allocator).
	NewWorker(sub *Subgraph, env Env) WorkerProgram
}

// Env is the per-run execution environment handed to NewWorker: the
// configured value width, the pooled batch allocator programs draw
// outgoing batches from, and the collective vote.
type Env struct {
	// ValueWidth is the number of float64 values per vertex (>= 1).
	ValueWidth int
	vote       *[2]Vote // this superstep's contributions, the last one's reduction
}

// Vote is one superstep's collective reduction, Pregel's aggregator
// (Malewicz et al., SIGMOD 2010, §3.3) with one fixed slot: the minimum and
// the OR of what the workers contributed; Voted is false if none did.
type Vote struct {
	Min         float64
	Flag, Voted bool
}

// merge folds o into v. The builtin min orders NaN and signed zeros, so
// every worker reduces the same contributions to the same bits.
func (v *Vote) merge(o Vote) {
	if !v.Voted {
		*v = o
	} else if o.Voted {
		v.Min, v.Flag = min(v.Min, o.Min), v.Flag || o.Flag
	}
}

// Reduce contributes (m, flag) to this superstep's vote, which every worker
// reads through Reduced in the next one, and so keeps the run alive.
func (e Env) Reduce(m float64, flag bool) { e.vote[0].merge(Vote{m, flag, true}) }

// Reduced returns what the previous superstep's contributions reduced to:
// their minimum and OR, and ok = false when no worker contributed.
func (e Env) Reduced() (m float64, flag, ok bool) {
	return e.vote[1].Min, e.vote[1].Flag, e.vote[1].Voted
}

// NewBatch returns an empty pooled outgoing batch of the run's width.
// Batches handed to the engine via Superstep's out slice are recycled by
// the engine/transport after delivery.
//
//ebv:owns the program hands the batch back via Superstep's out slice; the engine recycles it after delivery
func (e Env) NewBatch() *transport.MessageBatch {
	return transport.GetBatch(e.ValueWidth)
}

// NewValues returns a zeroed rows×ValueWidth value matrix (the shape
// Values must return for a subgraph with rows local vertices).
func (e Env) NewValues(rows int) *graph.ValueMatrix {
	return graph.NewValueMatrix(rows, e.ValueWidth)
}

// WorkerProgram is a program instance bound to one worker/subgraph.
type WorkerProgram interface {
	// Superstep runs the computation stage: it consumes the message batch
	// delivered at the end of the previous superstep and returns outgoing
	// batches indexed by destination worker (nil entries mean no messages;
	// out may be shorter than the worker count, and a non-empty batch at
	// an index >= the worker count fails the run). Returning active=false
	// votes to halt; the engine keeps every worker in lock-step until no
	// worker is active and no messages or votes were sent anywhere in the
	// step. A batch's last id must be below Subgraph.NumGlobalVertices.
	//
	// Ownership: in is only valid during the call — the engine recycles
	// it afterwards, and under the poison debug mode (EBV_DEBUG, or
	// transport.SetPoisonRecycled) retained batches are scribbled with
	// NaNs so retention bugs fail loudly. Batches placed in out transfer
	// to the engine; allocate them with Env.NewBatch and never reuse one
	// across slots or steps.
	Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool)
	// Values returns the final value matrix of the local vertices: one
	// row per local vertex (local index order), Env.ValueWidth columns.
	// It is called once, last; the matrix transfers to the engine, so a
	// worker may hand over its own state instead of a copy.
	Values() *graph.ValueMatrix
}

// ErrMaxSteps reports that a run hit the superstep safety cap.
var ErrMaxSteps = errors.New("bsp: exceeded max supersteps without converging")

// Config tunes a run. The zero value selects the defaults; it can be
// populated either as a struct literal or with the functional options
// accepted by NewConfig. The transport is not part of it: a whole job runs
// on its Deployment's mesh, a single worker on the transport handed to
// RunWorker.
type Config struct {
	// MaxSteps is the superstep safety cap (default 100000).
	MaxSteps int
	// ValueWidth is the number of float64 values carried per vertex and
	// per message (default 1 — the paper's scalar applications). Wider
	// runs move feature vectors through the same columnar batches.
	ValueWidth int
	// VerifyReplicaAgreement makes Run fail if, at termination, replicas
	// of the same vertex disagree. Tests enable it; benches do not pay
	// for it.
	VerifyReplicaAgreement bool
	// AutoCombine is ignored: the engine hands every batch to the exchange
	// as the program emitted it. benchmark/ still sets it (ROADMAP item
	// 1(b)).
	AutoCombine bool
	// CheckpointEvery, with a CheckpointSink, cuts a resumable checkpoint
	// at every superstep barrier it divides (before supersteps N, 2N, ...)
	// while the run is still active. The program's workers must implement
	// Resumable. 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointSink receives each cut checkpoint. cp.State is owned by the
	// sink; cp.InboxIDs/InboxVals alias engine memory and are only valid
	// during the call — a sink that retains the inbox must copy it. A sink
	// error fails the worker (a checkpoint that cannot be written is a
	// fault, not a warning: failover would silently lose progress).
	CheckpointSink func(worker int, cp *Checkpoint) error
	// Resume starts the run from per-worker checkpoints instead of step 0:
	// one non-nil entry per worker, all cut at the same Step (the aligned
	// epochs CheckpointEvery produces). Nil (or empty) starts fresh.
	Resume []*Checkpoint
}

// Option configures a Config functionally.
type Option func(*Config)

// NewConfig builds a Config from functional options.
func NewConfig(opts ...Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithMaxSteps sets the superstep safety cap (<= 0 selects the default).
func WithMaxSteps(n int) Option {
	return func(c *Config) { c.MaxSteps = n }
}

// WithValueWidth sets the per-vertex value width (0 selects the default
// of 1; widths < 0 fail Run with a clear error).
func WithValueWidth(n int) Option {
	return func(c *Config) { c.ValueWidth = n }
}

// WithReplicaVerification makes Run fail if replicas of the same vertex
// disagree at termination.
func WithReplicaVerification(on bool) Option {
	return func(c *Config) { c.VerifyReplicaAgreement = on }
}

// maxSteps resolves the superstep safety cap (<= 0 selects the default),
// shared by every entry point so one-shot runs, distributed workers and
// deployment jobs agree on the cap.
func (c Config) maxSteps() int {
	if c.MaxSteps <= 0 {
		return 100000
	}
	return c.MaxSteps
}

// Width resolves the configured width (0 = default 1) or errors on a
// width no transport can carry, so misconfiguration fails identically on
// Mem and TCP instead of surfacing as frame corruption on one of them.
func (c Config) Width() (int, error) {
	switch {
	case c.ValueWidth == 0:
		return 1, nil
	case c.ValueWidth < 1:
		return 0, fmt.Errorf("bsp: value width %d invalid: must be >= 1 (or 0 for the default of 1)",
			c.ValueWidth)
	case c.ValueWidth > transport.MaxValueWidth:
		return 0, fmt.Errorf("bsp: value width %d exceeds the transport cap %d",
			c.ValueWidth, transport.MaxValueWidth)
	default:
		return c.ValueWidth, nil
	}
}

// WorkerStats records a worker's per-superstep instrumentation.
type WorkerStats struct {
	// Comp[k], Comm[k], Sync[k] are the stage durations of superstep k
	// (§IV-B stages). Comm runs from the exchange call to the next inbox
	// being ready, excluding barrier wait; Sync is the wait.
	Comp []time.Duration
	Comm []time.Duration
	Sync []time.Duration
	// Sent[k] counts messages sent in superstep k to OTHER workers: the
	// rows the program emitted for them, handed to the exchange as is.
	Sent []int64
	// Received[k] counts messages received from other workers — rows as
	// they crossed the exchange, every one of which is delivered into
	// superstep k+1's inbox.
	Received []int64
}

// TotalSent sums messages sent across supersteps (the wire count).
func (w *WorkerStats) TotalSent() int64 { return sumInt64(w.Sent) }

func sumInt64(xs []int64) int64 {
	var total int64
	for _, x := range xs {
		total += x
	}
	return total
}

// TotalComp sums computation time across supersteps.
func (w *WorkerStats) TotalComp() time.Duration { return sumDur(w.Comp) }

// TotalComm sums communication time across supersteps.
func (w *WorkerStats) TotalComm() time.Duration { return sumDur(w.Comm) }

// TotalSync sums synchronization wait across supersteps.
func (w *WorkerStats) TotalSync() time.Duration { return sumDur(w.Sync) }

func sumDur(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// Result is the outcome of a Run.
type Result struct {
	// Steps is the number of supersteps executed.
	Steps int
	// Workers holds per-worker instrumentation, indexed by worker id.
	Workers []WorkerStats
	// Values holds the final value rows, dense over the global vertex id
	// space (row v = vertex v, Width = the run's ValueWidth). Rows of
	// vertices no subgraph covers stay zero; Covered tells them apart.
	Values *graph.ValueMatrix
	// Covered[v] reports whether some subgraph covers vertex v (vertices
	// with no assigned edge are uncovered and have no computed value).
	Covered []bool
	// WallTime is the end-to-end execution time (excluding partitioning
	// and subgraph construction, matching the paper's methodology).
	WallTime time.Duration
	// Epoch identifies the graph snapshot the job ran on: 0 for a frozen
	// deployment, incremented per Deployment.Swap when a live mutation
	// layer is attached (internal/live).
	Epoch uint64
}

// Value returns vertex v's scalar value (column 0) and whether v was
// covered by the run — the width-1 accessor matching the scalar era.
func (r *Result) Value(v graph.VertexID) (float64, bool) {
	row, ok := r.Row(v)
	if !ok {
		return 0, false
	}
	return row[0], true
}

// Row returns vertex v's value row (aliasing the result matrix) and
// whether v was covered.
func (r *Result) Row(v graph.VertexID) ([]float64, bool) {
	if int(v) >= len(r.Covered) || !r.Covered[v] {
		return nil, false
	}
	return r.Values.Row(int(v)), true
}

// Run is the one-shot form of Deployment.Run: it binds subs (built with
// BuildSubgraphs) to a fresh in-memory deployment, serves prog as its only
// job and closes the deployment. Callers running several programs over the
// same subgraphs, or over a custom transport mesh, hold a Deployment.
func Run(ctx context.Context, subs []*Subgraph, prog Program, cfg Config) (*Result, error) {
	d, err := NewDeployment(subs, nil)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Run(ctx, prog, cfg)
}

// checkResume validates the resume checkpoints for the local workers subs
// at the given width: either empty (fresh start) or one per worker, all cut
// at the same superstep with well-shaped inboxes.
func checkResume(resume []*Checkpoint, subs []*Subgraph, width int) error {
	if len(resume) == 0 {
		return nil
	}
	if len(resume) != len(subs) {
		return fmt.Errorf("bsp: %d resume checkpoints for %d workers", len(resume), len(subs))
	}
	for i, cp := range resume {
		w := subs[i].Part
		if cp == nil || cp.State == nil {
			return fmt.Errorf("bsp: resume checkpoint for worker %d missing", w)
		}
		if cp.Step < 1 {
			return fmt.Errorf("bsp: worker %d resume step %d invalid (checkpoints start at step 1)", w, cp.Step)
		}
		if cp.Step != resume[0].Step {
			return fmt.Errorf("bsp: resume steps disagree: worker %d at %d, worker %d at %d",
				subs[0].Part, resume[0].Step, w, cp.Step)
		}
		if err := cp.CheckInbox(width); err != nil {
			return fmt.Errorf("bsp: worker %d: %w", w, err)
		}
	}
	return nil
}

// runWorkers is the execution core under both entry points: Deployment.Run
// hands it all k workers of a job, RunWorker the one worker this process
// hosts of a job whose peers run elsewhere. It runs prog over subs[i] on
// trs[i] (worker id subs[i].Part) until global quiescence and returns one
// result per local worker. resume is empty or holds one checkpoint per
// local worker (see checkResume).
//
// The transports are this run's to tear down: they are closed when ctx is
// canceled and when any local worker fails (a bad batch, a transport
// fault, a checkpoint that cannot be written). Closing is the only way to
// release peers blocked in the collective exchange — goroutines here,
// processes elsewhere, which observe the closed connections and fail their
// own exchanges — so one worker's error never deadlocks the barrier.
// Concurrent calls over the same subgraphs are safe: subgraphs are
// immutable at run time and all per-run state lives here.
func runWorkers(ctx context.Context, prog Program, cfg Config, subs []*Subgraph,
	trs []transport.Transport, resume []*Checkpoint) ([]WorkerResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	width, err := cfg.Width()
	if err != nil {
		return nil, err
	}
	if err := checkResume(resume, subs, width); err != nil {
		return nil, err
	}

	// runWorker maps the transport errors the watch induces back to
	// workerCtx.Err().
	workerCtx, failRun := context.WithCancel(ctx)
	defer failRun()
	stopWatch := context.AfterFunc(workerCtx, func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	})
	defer stopWatch()

	spec := workerSpec{
		maxSteps:  cfg.maxSteps(),
		width:     width,
		ckptEvery: cfg.CheckpointEvery,
		sink:      cfg.CheckpointSink,
	}
	out := make([]WorkerResult, len(subs))
	errs := make([]error, len(subs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range subs {
		spec := spec
		if len(resume) > 0 {
			spec.resume = resume[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &out[i]
			o.Steps, o.Values, errs[i] = runWorker(workerCtx, subs[i], prog, trs[i], spec, &o.Stats)
			o.WallTime = time.Since(start)
			if errs[i] != nil {
				failRun()
			}
		}()
	}
	wg.Wait()

	// Report the caller's cancellation as such; otherwise surface the
	// first root-cause error (peers released by failRun report the induced
	// context.Canceled, which is noise, not the cause).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var firstErr error
	for i, err := range errs {
		if err != nil && (firstErr == nil ||
			errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = fmt.Errorf("bsp: worker %d: %w", subs[i].Part, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runWorker is the per-worker superstep loop. It returns the executed
// superstep count (the absolute step counter — a resumed worker reports
// the same count the uninterrupted run would) and the final local value
// matrix.
func runWorker(ctx context.Context, sub *Subgraph, prog Program, tr transport.Transport,
	spec workerSpec, stats *WorkerStats) (int, *graph.ValueMatrix, error) {
	w := sub.Part
	maxSteps, width := spec.maxSteps, spec.width
	env := Env{ValueWidth: width, vote: new([2]Vote)}
	wp := prog.NewWorker(sub, env)
	// Checkpointing and resuming both need the program's snapshot contract.
	resumable, ok := wp.(Resumable)
	if !ok && (spec.checkpointing() || spec.resume != nil) {
		return 0, nil, fmt.Errorf("bsp: program %s is not checkpointable (its workers do not implement bsp.Resumable)", prog.Name())
	}
	// The inbox batch concatenates the step's incoming batches; it cycles
	// through the pool every step, so the poison debug mode scribbles it
	// between supersteps (enforcing the "in is only valid during the
	// call" contract) at zero steady-state allocation cost. The deferred
	// recycle covers every return path (error paths deliberately strand
	// any other in-flight batches to the GC — the run is over and the
	// pool is best-effort).
	inbox := transport.GetBatch(width)
	defer func() { transport.RecycleBatch(inbox) }()
	startStep := 0
	if cp := spec.resume; cp != nil {
		// Rewind to the checkpointed barrier: the vote RestoreState reads, the
		// program state, then the inbox the exchange had delivered for cp.Step.
		env.vote[1] = cp.Vote
		if err := resumable.RestoreState(cp.Step, cp.State); err != nil {
			return 0, nil, fmt.Errorf("restore checkpoint at step %d: %w", cp.Step, err)
		}
		inbox.IDs = append(inbox.IDs, cp.InboxIDs...)
		inbox.Vals = append(inbox.Vals, cp.InboxVals...)
		startStep = cp.Step
	}
	for step := startStep; step < maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return step, nil, err
		}
		t0 := time.Now()
		out, active := wp.Superstep(step, inbox)
		comp := time.Since(t0)

		// Slots past the last worker are no one's: an empty one is dropped
		// (before castVote, so the vote never lands in it), a non-empty one
		// fails the worker instead of vanishing in the exchange.
		for dst := len(out) - 1; dst >= sub.NumWorkers; dst-- {
			if out[dst].Len() > 0 {
				return step, nil, fmt.Errorf("superstep %d outbox %d: no worker %d (k = %d)",
					step, dst, dst, sub.NumWorkers)
			}
			out = out[:dst]
		}
		var sent int64
		selfPending := false
		for dst, batch := range out {
			if err := batch.Check(width); err != nil {
				return step, nil, fmt.Errorf("superstep %d outbox %d: %w", step, dst, err)
			}
			if dst != w {
				sent += int64(batch.Len())
			} else if batch.Len() > 0 {
				selfPending = true
			}
		}
		// A worker with outbound messages or a vote must stay active so
		// receivers get a superstep to process them.
		effectiveActive := active || sent > 0 || selfPending || env.vote[0].Voted

		out, err := env.castVote(sub, step, out)
		if err != nil {
			return step, nil, err
		}
		t1 := time.Now()
		ex, err := tr.Exchange(w, step, out, effectiveActive)
		if err != nil {
			// A cancellation closes the transport under us; report the
			// cancellation, not the induced transport error.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return step, nil, ctxErr
			}
			return step, nil, fmt.Errorf("exchange step %d: %w", step, err)
		}

		// Delivery, the last act of the communication stage: the next inbox
		// is the columnar concatenation of the incoming batches in source
		// order. Duplicate-ID rows from different sources are not folded
		// here — the program folds each row into its own accumulator
		// anyway, in this same (source, row) order, so a receiver-side
		// pre-fold could only add a pass over the rows.
		transport.RecycleBatch(inbox)
		inbox = transport.GetBatch(width)
		rows := 0
		for _, batch := range ex.In {
			rows += batch.Len()
		}
		inbox.IDs = slices.Grow(inbox.IDs, rows)
		inbox.Vals = slices.Grow(inbox.Vals, rows*width)
		var received int64
		env.vote[0], env.vote[1] = Vote{}, env.vote[0]
		for src, batch := range ex.In {
			if batch == nil {
				continue
			}
			if err := batch.Check(width); err != nil {
				return step, nil, fmt.Errorf("superstep %d from worker %d: %w", step, src, err)
			}
			if src != w {
				env.vote[1].take(batch, sub.NumGlobalVertices)
				received += int64(batch.Len())
			}
			inbox.AppendBatch(batch)
			transport.RecycleBatch(batch)
		}
		comm := max(0, time.Since(t1)-ex.Wait)

		stats.Comp = append(stats.Comp, comp)
		stats.Comm = append(stats.Comm, comm)
		stats.Sync = append(stats.Sync, ex.Wait)
		stats.Sent = append(stats.Sent, sent)
		stats.Received = append(stats.Received, received)

		// Checkpoint cut: the run is still active and the next step is an
		// epoch boundary. Both inputs are globally agreed (the step counter
		// is lock-step, AnyActive is the exchange's collective OR), so every
		// worker cuts exactly the same epochs — see Checkpoint.
		if ex.AnyActive && spec.checkpointing() && (step+1)%spec.ckptEvery == 0 {
			cp := &Checkpoint{
				Step:      step + 1,
				State:     resumable.SnapshotState(),
				InboxIDs:  inbox.IDs,
				InboxVals: inbox.Vals,
				Vote:      env.vote[1],
			}
			if err := spec.sink(w, cp); err != nil {
				return step + 1, nil, fmt.Errorf("checkpoint at step %d: %w", step+1, err)
			}
		}

		if !ex.AnyActive {
			vals := wp.Values()
			if vals == nil {
				return step + 1, nil, errors.New("program returned nil values")
			}
			if vals.Width != width {
				return step + 1, nil, fmt.Errorf("program returned width-%d values for a width-%d run",
					vals.Width, width)
			}
			if err := vals.CheckShape(sub.NumLocalVertices()); err != nil {
				return step + 1, nil, err
			}
			return step + 1, vals, nil
		}
	}
	return maxSteps, nil, ErrMaxSteps
}

// castVote refuses an outgoing batch whose last id is not a vertex id and,
// when the worker voted, appends the vote to every peer's batch as one
// control row: id NumGlobalVertices, plus one if the flag is set, carrying
// Min. Control rows are not messages: Vote.take strips them on arrival.
func (e Env) castVote(sub *Subgraph, step int, out []*transport.MessageBatch) ([]*transport.MessageBatch, error) {
	v, n := e.vote[0], sub.NumGlobalVertices
	id := graph.VertexID(n)
	if v.Flag {
		id++
	}
	if v.Voted {
		out = append(out, make([]*transport.MessageBatch, max(0, sub.NumWorkers-len(out)))...)
	}
	for dst, b := range out {
		if last := b.Len() - 1; last >= 0 && int(b.IDs[last]) >= n {
			return nil, fmt.Errorf("superstep %d outbox %d: last id %d is not a vertex of the %d-vertex graph (ids from %d up carry the engine's vote)",
				step, dst, b.IDs[last], n, n)
		}
		if v.Voted && dst != sub.Part {
			e.SendScalar(out, int32(dst), id, v.Min)
		}
	}
	return out, nil
}

// take strips a peer batch's trailing control row, if it has one, and
// merges the vote it carried into v.
func (v *Vote) take(b *transport.MessageBatch, n int) {
	if last := b.Len() - 1; last >= 0 && int(b.IDs[last]) >= n {
		v.merge(Vote{b.Scalar(last), int(b.IDs[last]) > n, true})
		b.IDs, b.Vals = b.IDs[:last], b.Vals[:last*b.Width]
	}
}

// WorkerResult is the outcome of a single worker's participation in a
// run: what RunWorker returns, and what Deployment.Run assembles k of.
type WorkerResult struct {
	// Steps is the number of supersteps executed.
	Steps int
	// Values holds the final value matrix of the local vertices (one row
	// per local index).
	Values *graph.ValueMatrix
	// Stats is this worker's instrumentation.
	Stats WorkerStats
	// WallTime is this worker's end-to-end time.
	WallTime time.Duration
}

// RunWorker executes ONE worker of a distributed computation over the
// given transport (typically a job opened on a transport.MeshNode); the
// peer workers run in other processes. It blocks until global quiescence.
// A non-nil cp starts the worker at cp.Step with the checkpointed program
// state and inbox instead of step 0; every worker of the run must resume
// from the same epoch (the cluster coordinator's restore selection
// guarantees it). cfg.Resume is ignored — it indexes checkpoints by worker
// for whole-job runs — and so is cfg.VerifyReplicaAgreement, which needs
// the global view.
//
// ctx is polled at every superstep boundary; cancellation, like a local
// failure, closes the transport, so this worker tears down immediately and
// its peers fail their own exchanges instead of blocking — the distributed
// analogue of a crashed process.
func RunWorker(ctx context.Context, sub *Subgraph, prog Program, tr transport.Transport, cfg Config, cp *Checkpoint) (*WorkerResult, error) {
	if sub == nil {
		return nil, errors.New("bsp: nil subgraph")
	}
	if tr.NumWorkers() != sub.NumWorkers {
		return nil, fmt.Errorf("bsp: transport has %d workers, subgraph expects %d",
			tr.NumWorkers(), sub.NumWorkers)
	}
	var resume []*Checkpoint
	if cp != nil {
		resume = []*Checkpoint{cp}
	}
	out, err := runWorkers(ctx, prog, cfg, []*Subgraph{sub}, []transport.Transport{tr}, resume)
	if err != nil {
		return nil, err
	}
	return &out[0], nil
}
