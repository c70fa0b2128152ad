// Package serve is the production HTTP front end over the Session layer:
// a long-running graph-query service that owns N prepared graphs (an
// LRU-managed cache of ebv.Sessions with background warm-up and
// drain-before-close eviction) and serves jobs through a bounded queue
// with admission control — queue-full requests are rejected with 429 +
// Retry-After instead of piling up, per-request deadlines propagate as
// context through every superstep, and global plus per-graph concurrency
// limits keep one hot graph from starving the rest. This is ROADMAP item
// 4: the "millions of users" claim made falsifiable — the paper's
// partition-once investment (175.6 ms full pipeline vs ~7 ms/job steady
// state on the session bench) amortized over real HTTP traffic, with a
// Prometheus /metrics endpoint. The benchmark module's serve-mixed
// workload drives it under load and records queue wait, run time and
// HTTP overhead per job.
//
// Endpoints:
//
//	POST /v1/jobs                     run one job (JobRequest → JobResponse)
//	POST /v1/graphs/{g}/mutations     apply an edge-mutation batch (live graphs)
//	GET  /v1/graphs                   list configured graphs and their cache state
//	GET  /healthz                     200 serving | 503 draining
//	GET  /metrics                     Prometheus text format
//
// Lifecycle: New → Handler (mount on any http.Server) → Drain (stop
// admission) → Shutdown (wait for in-flight jobs with a deadline, then
// close every session). cmd/ebv-serve wires SIGTERM to exactly that
// sequence.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ebv"
)

// Config parameterizes a Server.
type Config struct {
	// Graphs are the servable graphs. At most MaxGraphs sessions are
	// open at once; the rest are warmed on demand.
	Graphs []GraphSpec
	// MaxGraphs is the session-cache capacity (default 4).
	MaxGraphs int
	// QueueDepth bounds the admitted jobs — waiting plus running. A
	// request arriving with the queue full is rejected with 429 (default
	// 64).
	QueueDepth int
	// MaxConcurrent bounds the jobs executing at once across all graphs
	// (default 8).
	MaxConcurrent int
	// MaxPerGraph bounds the jobs executing at once on one graph's
	// session (default 4).
	MaxPerGraph int
	// JobTimeout is the per-job deadline cap: the default when a request
	// names none, and the ceiling when it does (default 60s).
	JobTimeout time.Duration
	// Logf receives serve progress lines (nil discards them).
	Logf func(format string, args ...any)
}

func (c *Config) queueDepth() int {
	if c.QueueDepth < 1 {
		return 64
	}
	return c.QueueDepth
}

func (c *Config) maxConcurrent() int {
	if c.MaxConcurrent < 1 {
		return 8
	}
	return c.MaxConcurrent
}

func (c *Config) jobTimeout() time.Duration {
	if c.JobTimeout <= 0 {
		return 60 * time.Second
	}
	return c.JobTimeout
}

// Server is the graph-query service. Construct with New, mount Handler,
// and call Drain + Shutdown to stop.
type Server struct {
	cancel  context.CancelFunc // ends the lifecycle the cache holds: warm-ups stop, every session closes
	cfg     Config
	cache   *sessionCache
	metrics *serveMetrics

	queue  chan struct{} // admitted-job slots (waiting + running)
	global chan struct{} // run slots

	draining atomic.Bool
	jobs     sync.WaitGroup // one count per admitted job
	logf     func(format string, args ...any)
}

// New builds a Server under ctx. Canceling ctx ends the server lifecycle:
// warm-ups stop, every session closes (its running jobs fail with
// ErrSessionClosed) and new jobs get 503. Shutdown is the graceful path
// and ends the lifecycle last.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lifecycle, cancel := context.WithCancel(ctx)
	metrics := newServeMetrics()
	cache, err := newSessionCache(lifecycle, cfg.Graphs, cfg.MaxGraphs, cfg.MaxPerGraph, metrics)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &Server{
		cancel:  cancel,
		cfg:     cfg,
		cache:   cache,
		metrics: metrics,
		queue:   make(chan struct{}, cfg.queueDepth()),
		global:  make(chan struct{}, cfg.maxConcurrent()),
		logf:    cfg.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	metrics.registry.NewGaugeFunc("ebv_serve_graphs_open",
		"Graph sessions currently open or warming in the cache.",
		func() float64 { return float64(cache.open()) })
	return s, nil
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("POST /v1/graphs/{g}/mutations", s.handleMutations)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain stops admission: /healthz turns 503 (load balancers stop routing
// here) and new job requests are rejected; admitted jobs keep running.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether admission is stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully stops the server: admission stops, admitted jobs
// drain (bounded by ctx, the caller's drain deadline), then the server
// lifecycle ends, which closes every session. Jobs still running past the
// deadline lose their sessions and fail with ErrSessionClosed; Shutdown
// then waits for them once more, again bounded by ctx. It returns
// ctx.Err() exactly when admitted jobs were still running at the deadline,
// and nil otherwise, even if ctx is already done. Safe to call twice.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.Drain()
	done := make(chan struct{})
	go func() { s.jobs.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Every admitted job holds a queue slot until it is released.
		if n := len(s.queue); n > 0 {
			s.logf("serve: drain deadline expired with %d jobs still admitted; closing sessions", n)
			err = ctx.Err()
		}
	}
	s.cancel()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return err
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeJSON writes v as a 200 JSON body, or a 500 naming the encode error:
// the body is marshalled before the header goes out, so a value JSON
// cannot carry never turns into an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "serve: encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

// retryAfterSeconds estimates how long a rejected client should back
// off: the queue's worth of work at the current p50 latency, spread over
// the run slots — clamped to [1s, 30s].
func (s *Server) retryAfterSeconds() int {
	p50 := s.metrics.latency.Quantile(0.5)
	if p50 <= 0 {
		return 1
	}
	est := p50 * float64(cap(s.queue)) / float64(cap(s.global))
	secs := int(est + 0.999)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// admit is the admission path jobs and mutation batches share, run after
// the handler's own decode and validation. In order: a queue slot, held
// to completion (429 with Retry-After when the queue is full); the
// deadline, the client's timeout_ms capped by JobTimeout, which covers
// warm-up wait, run-slot wait and the execution; the graph's session
// (which may wait on a background warm-up); a global and then a
// per-graph run slot. It returns the request context, the session handle,
// the admission time and the one release that undoes all of it. On a nil
// release admit has already answered the request.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, graph string, timeoutMS int, what string) (context.Context, *graphHandle, time.Time, func()) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.rejected.Inc("queue_full")
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "job queue full (%d admitted)", cap(s.queue))
		return nil, nil, time.Time{}, nil
	}
	s.metrics.admitted.Inc("")
	s.metrics.queued.Add(1)
	s.jobs.Add(1)
	admitted := time.Now()

	timeout := s.cfg.jobTimeout()
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	held := []func(){func() { <-s.queue; s.jobs.Done() }, cancel}
	release := func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i]()
		}
	}

	handle, err := s.cache.acquire(ctx, graph)
	if err == nil {
		held = append(held, handle.release)
		for _, sem := range []chan struct{}{s.global, handle.entry.sem} {
			select {
			case sem <- struct{}{}:
				held = append(held, func() { <-sem })
			case <-ctx.Done():
				err = ctx.Err()
			}
			if err != nil {
				break
			}
		}
	}
	s.metrics.queued.Add(-1)
	if err != nil {
		s.failed(w, what, err)
		release()
		return nil, nil, time.Time{}, nil
	}
	s.metrics.inflight.Add(1)
	held = append(held, func() { s.metrics.inflight.Add(-1) })
	return ctx, handle, admitted, release
}

// failed maps an admitted request's failure to a status code, records
// it, and logs it under what.
func (s *Server) failed(w http.ResponseWriter, what string, err error) {
	status, reason := http.StatusInternalServerError, "error"
	switch {
	case errors.Is(err, ebv.ErrMutationRejected):
		status, reason = http.StatusBadRequest, "rejected"
	case errors.Is(err, context.DeadlineExceeded):
		status, reason = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		// The client went away (or the handler unwound); the response
		// likely lands nowhere, but account for it either way.
		status, reason = 499, "canceled"
	case errors.Is(err, ebv.ErrSessionClosed), errors.Is(err, errCacheClosed):
		status, reason = http.StatusServiceUnavailable, "closed"
	case errors.Is(err, ErrUnknownGraph):
		status, reason = http.StatusNotFound, "unknown_graph"
	}
	s.metrics.failed.Inc(reason)
	s.logf("serve: %s failed (%s): %v", what, reason, err)
	httpError(w, status, "%v", err)
}

// handleJob is POST /v1/jobs: decode → validate → admit → execute with
// the request deadline → respond.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.rejected.Inc("draining")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	prog, err := req.validate()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.cache.hasGraph(req.Graph) {
		// Checked before admission so a typo'd graph name never consumes
		// a queue slot.
		httpError(w, http.StatusNotFound, "%v %q", ErrUnknownGraph, req.Graph)
		return
	}
	what := "job " + req.Graph + "/" + req.App
	ctx, handle, admitted, release := s.admit(w, r, req.Graph, req.TimeoutMS, what)
	if release == nil {
		return
	}
	defer release()
	queueWait := time.Since(admitted)
	s.metrics.queueWait.ObserveDuration(queueWait)

	jr, err := handle.session.Run(ctx, prog, req.runOptions()...)
	if err != nil {
		s.failed(w, what, err)
		return
	}
	total := time.Since(admitted)
	s.metrics.completed.Inc(jr.Program)
	s.metrics.latency.ObserveDuration(total)
	s.metrics.messages.Add("emitted", jr.Counts.Emitted)
	s.metrics.messages.Add("wire", jr.Counts.Wire)
	s.metrics.messages.Add("delivered", jr.Counts.Delivered)
	writeJSON(w, buildResponse(&req, jr, 1000*queueWait.Seconds(), 1000*total.Seconds()))
}

// graphsResponse is the GET /v1/graphs body.
type graphsResponse struct {
	Graphs []graphState `json:"graphs"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	includeStats := r.URL.Query().Get("stats") == "1"
	writeJSON(w, graphsResponse{Graphs: s.cache.states(includeStats)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.metrics.registry.WriteTo(w); err != nil {
		s.logf("serve: metrics write: %v", err)
	}
}
