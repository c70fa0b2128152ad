// Tests for the Session API: prepare-once/serve-many over one deployment,
// concurrent mixed-width jobs byte-identical to isolated runs on Mem and
// TCP, close-while-running release, and the Pipeline option validations
// that ride along.
package ebv_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv"
)

// sessionPipeline builds the standard test pipeline over pipelineGraph.
func sessionPipeline(t testing.TB, extra ...ebv.PipelineOption) *ebv.Pipeline {
	t.Helper()
	opts := append([]ebv.PipelineOption{
		ebv.FromGraph(pipelineGraph(t)),
		ebv.UsePartitioner(ebv.NewEBV()),
		ebv.Subgraphs(4),
	}, extra...)
	return ebv.NewPipeline(opts...)
}

// TestSessionServesManyJobs opens one session and serves CC, PR and SSSP
// sequentially; every job must match the equivalent isolated Pipeline.Run
// byte for byte, and the stats must account for all three.
func TestSessionServesManyJobs(t *testing.T) {
	s, err := sessionPipeline(t).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Prepared().BSP != nil {
		t.Fatal("Open ran a program")
	}

	progs := []ebv.Program{&ebv.CC{}, &ebv.PageRank{Iterations: 6}, &ebv.SSSP{Source: 0}}
	for i, prog := range progs {
		want, err := sessionPipeline(t).Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		job, err := s.Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if job.Job != i+1 || job.Program != prog.Name() {
			t.Fatalf("job = %+v, want job %d of %s", job, i+1, prog.Name())
		}
		if job.BSP.Steps != want.BSP.Steps {
			t.Fatalf("%s: session steps %d, isolated %d", prog.Name(), job.BSP.Steps, want.BSP.Steps)
		}
		if !job.BSP.Values.EqualValues(want.BSP.Values) {
			t.Fatalf("%s: session values differ from isolated Pipeline.Run", prog.Name())
		}
	}

	st := s.Stats()
	if st.JobsServed != len(progs) || len(st.Jobs) != len(progs) {
		t.Fatalf("stats = %+v, want %d jobs", st, len(progs))
	}
	if st.PrepareTime <= 0 || st.TotalRunTime <= 0 {
		t.Fatalf("stats missing timings: %+v", st)
	}
	if st.FirstRunTime() != st.Jobs[0].RunTime {
		t.Fatalf("FirstRunTime = %v, want %v", st.FirstRunTime(), st.Jobs[0].RunTime)
	}
	if st.SteadyStateRunTime() <= 0 {
		t.Fatalf("SteadyStateRunTime = %v with %d jobs", st.SteadyStateRunTime(), len(st.Jobs))
	}
}

// TestSessionConcurrentMixedWidthJobs is the acceptance criterion: N
// goroutines serve jobs of widths 1, 3 and 8 concurrently on one session —
// over Mem and over the TCP loopback job mux — and every result must be
// byte-identical to the equivalent isolated Pipeline.Run.
func TestSessionConcurrentMixedWidthJobs(t *testing.T) {
	feature := func(v ebv.VertexID, feat []float64) {
		for j := range feat {
			feat[j] = float64((uint64(v)*13 + uint64(j)*7) % 11)
		}
	}
	cases := []struct {
		name  string
		prog  func() ebv.Program
		width int
	}{
		{"CCw1", func() ebv.Program { return &ebv.CC{} }, 1},
		{"AGGw3", func() ebv.Program { return &ebv.Aggregate{Layers: 2, Feature: feature} }, 3},
		{"AGGw8", func() ebv.Program { return &ebv.Aggregate{Layers: 2, Feature: feature} }, 8},
	}
	// Isolated baselines.
	want := make([]*ebv.PipelineResult, len(cases))
	for i, tc := range cases {
		res, err := sessionPipeline(t, ebv.WithRun(ebv.WithValueWidth(tc.width))).Run(context.Background(), tc.prog())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, mesh := range []string{"mem", "tcp"} {
		t.Run(mesh, func(t *testing.T) {
			var opts []ebv.PipelineOption
			if mesh == "tcp" {
				opts = append(opts, ebv.UseTCPLoopback())
			}
			s, err := sessionPipeline(t, opts...).Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const rounds = 3
			var wg sync.WaitGroup
			errs := make(chan error, len(cases)*rounds)
			for r := 0; r < rounds; r++ {
				for i, tc := range cases {
					wg.Add(1)
					go func(i int, name string, prog ebv.Program, width int) {
						defer wg.Done()
						job, err := s.Run(context.Background(), prog, ebv.WithValueWidth(width))
						if err != nil {
							errs <- fmt.Errorf("%s: %w", name, err)
							return
						}
						if job.ValueWidth != width {
							errs <- fmt.Errorf("%s: job width %d, want %d", name, job.ValueWidth, width)
							return
						}
						if !job.BSP.Values.EqualValues(want[i].BSP.Values) {
							errs <- fmt.Errorf("%s: concurrent session values differ from isolated run", name)
						}
					}(i, tc.name, tc.prog(), tc.width)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if st := s.Stats(); st.JobsServed != len(cases)*rounds {
				t.Errorf("JobsServed = %d, want %d", st.JobsServed, len(cases)*rounds)
			}
		})
	}
}

// TestSessionCloseWhileRunningReleasesWorkers closes the session while a
// never-quiescing job is mid-superstep: the blocked workers must be
// released and Run must fail with ErrSessionClosed in bounded time, on
// both transports.
func TestSessionCloseWhileRunningReleasesWorkers(t *testing.T) {
	for _, mesh := range []string{"mem", "tcp"} {
		t.Run(mesh, func(t *testing.T) {
			var opts []ebv.PipelineOption
			if mesh == "tcp" {
				opts = append(opts, ebv.UseTCPLoopback())
			}
			s, err := sessionPipeline(t, opts...).Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := s.Run(context.Background(), &neverHalt{}, ebv.WithMaxSteps(1<<30))
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ebv.ErrSessionClosed) {
					t.Fatalf("err = %v, want ErrSessionClosed", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close did not release the blocked job")
			}
			if _, err := s.Run(context.Background(), &ebv.CC{}); !errors.Is(err, ebv.ErrSessionClosed) {
				t.Fatalf("Run after Close: err = %v, want ErrSessionClosed", err)
			}
		})
	}
}

// TestSessionCancelOneJobLeavesSessionServing cancels one job's context
// mid-run; the session must keep serving subsequent jobs correctly.
func TestSessionCancelOneJobLeavesSessionServing(t *testing.T) {
	s, err := sessionPipeline(t).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, &neverHalt{}, ebv.WithMaxSteps(1<<30))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job cancellation did not release the workers")
	}

	want, err := sessionPipeline(t).Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatalf("job after a canceled job: %v", err)
	}
	if !job.BSP.Values.EqualValues(want.BSP.Values) {
		t.Fatal("post-cancellation job values differ from isolated run")
	}
}

// TestSessionProgressEventsPerJob: every job emits a StageRun start/done
// pair tagged with its job number.
func TestSessionProgressEventsPerJob(t *testing.T) {
	var mu sync.Mutex
	var events []ebv.PipelineProgress
	s, err := sessionPipeline(t, ebv.OnProgress(func(ev ebv.PipelineProgress) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prepEvents := len(events)
	if prepEvents != 6 { // load, partition, build × start/done
		t.Fatalf("Open emitted %d events, want 6", prepEvents)
	}
	if _, err := s.Run(context.Background(), &ebv.CC{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), &ebv.CC{}); err != nil {
		t.Fatal(err)
	}
	runEvents := events[prepEvents:]
	if len(runEvents) != 4 {
		t.Fatalf("2 jobs emitted %d events, want 4", len(runEvents))
	}
	for i, ev := range runEvents {
		if ev.Stage != ebv.StageRun {
			t.Fatalf("event %d stage = %s, want run", i, ev.Stage)
		}
		wantJob := fmt.Sprintf("(job %d)", i/2+1)
		if !strings.Contains(ev.Detail, wantJob) {
			t.Fatalf("event %d detail = %q, want %q tag", i, ev.Detail, wantJob)
		}
		if ev.Done != (i%2 == 1) {
			t.Fatalf("event %d done = %v", i, ev.Done)
		}
	}
}

// strayMirror is a program whose workers run no superstep and return each
// local vertex's global id as its row, except that worker Worker returns
// -1 for its first mirror: the one replica that disagrees with its master.
type strayMirror struct{ Worker int }

func (*strayMirror) Name() string { return "STRAY" }

func (p *strayMirror) NewWorker(sub *ebv.Subgraph, env ebv.WorkerEnv) ebv.WorkerProgram {
	vals := env.NewValues(sub.NumLocalVertices())
	for l, gid := range sub.GlobalIDs {
		vals.SetScalar(l, float64(gid))
	}
	if sub.Part == p.Worker {
		for _, col := range sub.Routing().ToMaster {
			if len(col.Locals) > 0 {
				vals.SetScalar(int(col.Locals[0]), -1)
				break
			}
		}
	}
	return strayMirrorWorker{vals}
}

type strayMirrorWorker struct{ vals *ebv.ValueMatrix }

func (strayMirrorWorker) Superstep(int, *ebv.MessageBatch) ([]*ebv.MessageBatch, bool) {
	return nil, false
}

func (w strayMirrorWorker) Values() *ebv.ValueMatrix { return w.vals }

// TestSessionRefusesDisagreeingReplicas: a job with the default options
// whose program leaves one mirror's row different from its master's fails,
// naming the vertex, both rows, the mirror's worker and the master's; the
// session serves the next job.
func TestSessionRefusesDisagreeingReplicas(t *testing.T) {
	s, err := sessionPipeline(t).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const stray = 3
	var want string
	for q, col := range s.Prepared().Subgraphs[stray].Routing().ToMaster {
		if len(col.Locals) > 0 {
			want = fmt.Sprintf("bsp: replicas of vertex %d disagree at column 0: %d vs -1 (worker %d), master at worker %d",
				col.IDs[0], col.IDs[0], stray, q)
			break
		}
	}
	if want == "" {
		t.Fatalf("worker %d holds no mirror", stray)
	}
	if _, err := s.Run(context.Background(), &strayMirror{Worker: stray}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if _, err := s.Run(context.Background(), &strayMirror{Worker: -1}); err != nil {
		t.Fatalf("agreeing replicas: %v", err)
	}
}

// TestPipelineSubgraphsAssignmentMismatch: Subgraphs(k) combined with a
// k'-part UseAssignment must fail loudly instead of silently following the
// assignment (the PR's validation bugfix).
func TestPipelineSubgraphsAssignmentMismatch(t *testing.T) {
	g := pipelineGraph(t)
	a, err := ebv.NewEBV().Partition(t.Context(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ebv.NewPipeline(
		ebv.FromGraph(g),
		ebv.UseAssignment(a),
		ebv.Subgraphs(8),
	).Run(context.Background(), &ebv.CC{})
	if err == nil || !strings.Contains(err.Error(), "Subgraphs(8)") {
		t.Fatalf("err = %v, want a Subgraphs/UseAssignment conflict", err)
	}
	// Matching counts stay fine.
	if _, err := ebv.NewPipeline(
		ebv.FromGraph(g),
		ebv.UseAssignment(a),
		ebv.Subgraphs(3),
	).Run(context.Background(), &ebv.CC{}); err != nil {
		t.Fatalf("matching Subgraphs(3): %v", err)
	}
}

// TestPipelineValueWidthErrorText: the width validation names the actual
// contract (>= 1, or 0 for the default) instead of claiming 0 is invalid.
func TestPipelineValueWidthErrorText(t *testing.T) {
	_, err := sessionPipeline(t, ebv.WithRun(ebv.WithValueWidth(-2))).Run(context.Background(), &ebv.CC{})
	if err == nil || !strings.Contains(err.Error(), "0 for the default") {
		t.Fatalf("err = %v, want the corrected width contract text", err)
	}
	if _, err := sessionPipeline(t, ebv.WithRun(ebv.WithValueWidth(0))).Run(context.Background(), &ebv.CC{}); err != nil {
		t.Fatalf("WithValueWidth(0) must select the default: %v", err)
	}
}

// TestOpenBadWidthRunsNoStage: a pipeline width no run can use fails Open
// before any stage runs, instead of failing the first job after a full
// load, partition and build.
func TestOpenBadWidthRunsNoStage(t *testing.T) {
	for _, tc := range []struct {
		width int
		want  string
	}{
		{-2, "value width -2 invalid"},
		{1<<16 + 1, "value width 65537 exceeds the transport cap"},
	} {
		var events []ebv.PipelineProgress
		s, err := sessionPipeline(t, ebv.WithRun(ebv.WithValueWidth(tc.width)),
			ebv.OnProgress(func(ev ebv.PipelineProgress) { events = append(events, ev) }),
		).Open(context.Background())
		if err == nil {
			s.Close()
			t.Fatalf("width %d: Open succeeded", tc.width)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("width %d: err = %v, want it to contain %q", tc.width, err, tc.want)
		}
		if len(events) != 0 {
			t.Fatalf("width %d: a failed Open ran stages: %+v", tc.width, events)
		}
	}
}

// TestOpenUnknownMutationPolicyRunsNoStage: an unknown MutationPolicy fails
// Open before any stage runs, so no load or partition is paid and no TCP
// mesh is wired and left open.
func TestOpenUnknownMutationPolicyRunsNoStage(t *testing.T) {
	var events []ebv.PipelineProgress
	s, err := sessionPipeline(t, ebv.UseTCPLoopback(), ebv.MutationPolicy("nope"),
		ebv.OnProgress(func(ev ebv.PipelineProgress) { events = append(events, ev) }),
	).Open(context.Background())
	if err == nil {
		s.Close()
		t.Fatal("Open accepted an unknown mutation policy")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want it to name the policy", err)
	}
	if len(events) != 0 {
		t.Fatalf("a failed Open ran stages: %+v", events)
	}
}

// TestSessionCombinedJobsTCPLeakNoGoroutines extends the goroutine-leak
// checks to the serving regime this PR adds: a Session opened on the TCP
// loopback mesh serves a cycle of jobs (every app, mixed widths) and is
// closed; the mesh's demux readers,
// frame writers and worker goroutines must all exit.
func TestSessionCombinedJobsTCPLeakNoGoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 2; cycle++ {
		s, err := sessionPipeline(t, ebv.UseTCPLoopback()).Open(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		jobs := []struct {
			prog ebv.Program
			opts []ebv.RunOption
		}{
			{&ebv.CC{}, nil},
			{&ebv.PageRank{Iterations: 4}, nil},
			{&ebv.SSSP{Source: 0}, nil},
			{&ebv.Aggregate{Layers: 2}, []ebv.RunOption{ebv.WithValueWidth(4)}},
		}
		for _, j := range jobs {
			res, err := s.Run(context.Background(), j.prog, j.opts...)
			if err != nil {
				t.Fatalf("cycle %d, %s: %v", cycle, j.prog.Name(), err)
			}
			if c := res.BSP.MessageCounts(); c.Delivered != c.Wire || c.Wire != c.Emitted {
				t.Fatalf("cycle %d, %s: want delivered == wire == emitted, got %+v", cycle, j.prog.Name(), c)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after TCP session cycles",
		before, runtime.NumGoroutine())
}

// TestSessionStatsConcurrentSnapshot hammers Run and Stats concurrently
// and requires every snapshot to be internally consistent: JobsServed
// always equals len(Jobs), TotalRunTime always equals the sum of the
// snapshot's own job rows, and job numbers never repeat. Run under -race
// this is also the data-race audit of the session's accounting mutex.
func TestSessionStatsConcurrentSnapshot(t *testing.T) {
	s, err := sessionPipeline(t).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const runners = 4
	const jobsPerRunner = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobsPerRunner {
				prog := ebv.Program(&ebv.CC{})
				if r%2 == 1 {
					prog = &ebv.PageRank{Iterations: 3}
				}
				if _, err := s.Run(context.Background(), prog); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}()
	}
	// Snapshot readers race the runners until all jobs finish.
	var snapErrs []string
	var snapMu sync.Mutex
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				var sum time.Duration
				seen := make(map[int]bool, len(st.Jobs))
				for _, j := range st.Jobs {
					sum += j.RunTime
					if seen[j.Job] {
						snapMu.Lock()
						snapErrs = append(snapErrs, fmt.Sprintf("job %d appears twice", j.Job))
						snapMu.Unlock()
					}
					seen[j.Job] = true
				}
				if st.JobsServed != len(st.Jobs) || st.TotalRunTime != sum {
					snapMu.Lock()
					snapErrs = append(snapErrs, fmt.Sprintf(
						"torn snapshot: served %d, rows %d, total %v, row sum %v",
						st.JobsServed, len(st.Jobs), st.TotalRunTime, sum))
					snapMu.Unlock()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Runners share wg with the readers; stop the readers once job
		// count says the runners are finished.
		for {
			if s.Stats().JobsServed == runners*jobsPerRunner {
				close(stop)
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	<-done
	for _, e := range snapErrs {
		t.Error(e)
	}
	st := s.Stats()
	if st.JobsServed != runners*jobsPerRunner {
		t.Fatalf("served %d jobs, want %d", st.JobsServed, runners*jobsPerRunner)
	}
}

// TestSessionStatsJSONSurface locks the stable lowercase JSON tags the
// serving layer (and any external dashboard) depends on — a rename here
// is an API break, not a refactor.
func TestSessionStatsJSONSurface(t *testing.T) {
	s, err := sessionPipeline(t).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jr, err := s.Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}

	var jrMap map[string]any
	payload, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &jrMap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"job", "program", "value_width", "steps", "message_counts", "run_time"} {
		if _, ok := jrMap[key]; !ok {
			t.Errorf("JobResult JSON missing %q (got %s)", key, payload)
		}
	}
	if _, ok := jrMap["BSP"]; ok {
		t.Error("JobResult JSON leaks the BSP execution result")
	}
	counts, ok := jrMap["message_counts"].(map[string]any)
	if !ok {
		t.Fatalf("message_counts = %T", jrMap["message_counts"])
	}
	for _, key := range []string{"emitted", "wire", "delivered"} {
		if _, ok := counts[key]; !ok {
			t.Errorf("MessageCounts JSON missing %q", key)
		}
	}

	var stMap map[string]any
	payload, err = json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &stMap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_served", "load_time", "partition_time", "build_time", "prepare_time", "total_run_time", "jobs"} {
		if _, ok := stMap[key]; !ok {
			t.Errorf("SessionStats JSON missing %q (got %s)", key, payload)
		}
	}
	jobs := stMap["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("jobs = %v", stMap["jobs"])
	}
	row := jobs[0].(map[string]any)
	for _, key := range []string{"job", "program", "value_width", "steps", "messages", "message_counts", "run_time"} {
		if _, ok := row[key]; !ok {
			t.Errorf("JobStats JSON missing %q", key)
		}
	}
}
