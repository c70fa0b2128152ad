package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ebv"
	"ebv/internal/live"
)

// ErrUnknownGraph reports a job request naming a graph the server was not
// configured with.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// errCacheClosed reports an Acquire on a cache the server already shut
// down.
var errCacheClosed = errors.New("serve: cache closed")

// GraphSpec describes one graph the service can open a session for. A
// spec is configuration, not state: the session it describes is built
// lazily (background warm-up on first reference) and may be LRU-evicted
// and rebuilt any number of times.
type GraphSpec struct {
	// Name is the graph's request key (JobRequest.Graph).
	Name string
	// Path is an edge-list file (".bin" selects the binary codec).
	// Exactly one of Path and Generate must be set.
	Path string
	// Generate produces the graph in-process (tests, synthetic CI
	// workloads).
	Generate func() (*ebv.Graph, error)
	// Undirected mirrors text edge-list input.
	Undirected bool
	// Subgraphs is the partition count k (0 selects 8, the repo default;
	// negative fails New).
	Subgraphs int
	// Combine is ignored. benchmark/ still sets it (ROADMAP item 1(b)).
	Combine bool
	// MutationPolicy names the streaming assignment policy for live
	// mutation batches: "ebv" (default), "hdrf" or "fennel".
	MutationPolicy string
	// VerifyMutations cross-checks every incremental patch against a full
	// rebuild (slow; CI smoke tests).
	VerifyMutations bool
}

// pipeline builds the spec's prepare-once pipeline.
func (gs GraphSpec) pipeline() (*ebv.Pipeline, error) {
	opts := []ebv.PipelineOption{
		ebv.UsePartitioner(ebv.NewEBV()),
	}
	switch {
	case gs.Path != "" && gs.Generate != nil:
		return nil, fmt.Errorf("serve: graph %q sets both Path and Generate", gs.Name)
	case gs.Path != "":
		opts = append(opts, ebv.FromEdgeList(gs.Path))
	case gs.Generate != nil:
		opts = append(opts, ebv.FromGenerator(gs.Generate))
	default:
		return nil, fmt.Errorf("serve: graph %q has no source (set Path or Generate)", gs.Name)
	}
	if gs.Undirected {
		opts = append(opts, ebv.Undirected())
	}
	switch {
	case gs.Subgraphs < 0:
		return nil, fmt.Errorf("serve: graph %q: subgraph count %d is negative", gs.Name, gs.Subgraphs)
	case gs.Subgraphs > 0:
		opts = append(opts, ebv.Subgraphs(gs.Subgraphs))
	}
	if gs.MutationPolicy != "" {
		// Open resolves the name too, but only at warm-up: a typo would
		// pass New and then fail every request after a full prepare.
		if _, err := live.PolicyByName(gs.MutationPolicy); err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", gs.Name, err)
		}
		opts = append(opts, ebv.MutationPolicy(gs.MutationPolicy))
	}
	if gs.VerifyMutations {
		opts = append(opts, ebv.VerifyMutations())
	}
	return ebv.NewPipeline(opts...), nil
}

// cacheEntry is one graph's live state: a session being warmed or
// serving, plus the refcount that defers eviction's Close until every
// in-flight job released it.
type cacheEntry struct {
	spec GraphSpec

	// ready is closed when warm-up finished (session or err set).
	ready   chan struct{}
	session *ebv.Session
	err     error

	sem chan struct{} // per-graph run slots

	// Guarded by the owning cache's mu.
	refs    int
	lastUse int64 // cache.clock stamp, for LRU ordering
	evicted bool
	// drained is closed when evicted && refs == 0 — the evictor's cue
	// that in-flight jobs finished and the session may close.
	drained chan struct{}
}

// sessionCache owns the N prepared graphs: an LRU-managed map from graph
// name to session, warming sessions up in the background on first
// reference and draining in-flight jobs before an evicted session
// closes.
type sessionCache struct {
	ctx      context.Context // server lifecycle; warm-ups and drains derive from it
	specs    map[string]GraphSpec
	names    []string // spec order, for deterministic listings
	capacity int
	perGraph int
	metrics  *serveMetrics

	mu      sync.Mutex
	entries map[string]*cacheEntry
	clock   int64
	closed  bool
	evictWG sync.WaitGroup // one count per pending evictor
}

func newSessionCache(ctx context.Context, specs []GraphSpec, capacity, perGraph int, metrics *serveMetrics) (*sessionCache, error) {
	if len(specs) == 0 {
		return nil, errors.New("serve: no graphs configured")
	}
	if capacity < 1 {
		capacity = 4
	}
	if perGraph < 1 {
		perGraph = 4
	}
	c := &sessionCache{
		ctx:      ctx,
		specs:    make(map[string]GraphSpec, len(specs)),
		capacity: capacity,
		perGraph: perGraph,
		metrics:  metrics,
		entries:  make(map[string]*cacheEntry),
	}
	for _, gs := range specs {
		if gs.Name == "" {
			return nil, errors.New("serve: graph spec with empty name")
		}
		if _, dup := c.specs[gs.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate graph name %q", gs.Name)
		}
		if _, err := gs.pipeline(); err != nil {
			return nil, err // invalid spec: fail at construction, not first request
		}
		c.specs[gs.Name] = gs
		c.names = append(c.names, gs.Name)
	}
	return c, nil
}

// graphHandle is an acquired reference to a graph's session. Release it
// exactly once; the session is valid until then even if the entry is
// evicted concurrently.
type graphHandle struct {
	cache   *sessionCache
	entry   *cacheEntry
	session *ebv.Session
	spec    GraphSpec
}

// acquire resolves name to a ready session, warming one up (and possibly
// evicting the least-recently-used entry) on a cache miss. It blocks
// until warm-up completes or ctx is done. The returned handle's release
// must be called when the job is finished with the session.
func (c *sessionCache) acquire(ctx context.Context, name string) (*graphHandle, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errCacheClosed
	}
	e := c.entries[name]
	if e == nil {
		spec, ok := c.specs[name]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w %q", ErrUnknownGraph, name)
		}
		c.metrics.cacheMiss.Inc("")
		e = &cacheEntry{
			spec:    spec,
			ready:   make(chan struct{}),
			sem:     make(chan struct{}, c.perGraph),
			drained: make(chan struct{}),
		}
		c.entries[name] = e
		c.evictLockedExcept(name)
		go c.warm(e)
	} else {
		c.metrics.cacheHits.Inc("")
	}
	e.refs++
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()

	select {
	case <-e.ready:
	case <-ctx.Done():
		c.release(e)
		return nil, ctx.Err()
	}
	if e.err != nil {
		c.release(e)
		return nil, e.err
	}
	return &graphHandle{cache: c, entry: e, session: e.session, spec: e.spec}, nil
}

// release drops one reference; the last release of an evicted entry
// signals its drain.
func (c *sessionCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	if e.evicted && e.refs == 0 {
		close(e.drained)
	}
	c.mu.Unlock()
}

func (h *graphHandle) release() { h.cache.release(h.entry) }

// warm prepares the entry's session under the server lifecycle context
// (NOT a request context: the first requester giving up must not abort a
// warm-up other queued requesters are waiting on).
func (c *sessionCache) warm(e *cacheEntry) {
	p, err := e.spec.pipeline()
	if err == nil {
		e.session, err = p.Open(c.ctx)
	}
	if err == nil && c.isClosed() {
		// The cache shut down while this warm-up was in flight and
		// closeAll may already have given up waiting for it: close the
		// session here (Close is idempotent, so racing closeAll is fine).
		_ = e.session.Close()
		e.session, err = nil, errCacheClosed
	}
	if err != nil {
		e.err = fmt.Errorf("serve: warm up graph %q: %w", e.spec.Name, err)
		// Drop the failed entry so the next request retries the build
		// (the error stays visible to everyone already waiting on ready).
		c.mu.Lock()
		if c.entries[e.spec.Name] == e {
			delete(c.entries, e.spec.Name)
		}
		if !e.evicted {
			e.evicted = true
			if e.refs == 0 {
				close(e.drained)
			}
		}
		c.mu.Unlock()
	}
	close(e.ready)
}

// evictLockedExcept evicts least-recently-used entries (never `keep`)
// until the cache is within capacity. Called with mu held. Eviction is
// immediate for new references — the entry leaves the map — but the
// session closes only after warm-up finished AND every in-flight job
// released its reference; a background evictor waits for both.
func (c *sessionCache) evictLockedExcept(keep string) {
	for len(c.entries) > c.capacity {
		var victim *cacheEntry
		var victimName string
		for name, e := range c.entries {
			if name == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimName = e, name
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victimName)
		victim.evicted = true
		if victim.refs == 0 {
			close(victim.drained)
		}
		c.metrics.cacheEvict.Inc("")
		c.evictWG.Add(1)
		go c.drainAndClose(victim)
	}
}

// drainAndClose closes an evicted entry's session once its warm-up
// finished and its last in-flight job released it. Server shutdown
// cancels the wait — CloseAll then closes every session regardless.
func (c *sessionCache) drainAndClose(e *cacheEntry) {
	defer c.evictWG.Done()
	select {
	case <-e.ready:
	case <-c.ctx.Done():
		return
	}
	if e.err != nil {
		return
	}
	select {
	case <-e.drained:
	case <-c.ctx.Done():
		// Lifecycle over before the drain finished: close anyway — a job
		// still holding the session fails with ErrSessionClosed, which
		// beats leaking the session's transports.
	}
	_ = e.session.Close()
}

// hasGraph reports whether name is a configured graph. The spec set is
// immutable after construction, so no lock is needed.
func (c *sessionCache) hasGraph(name string) bool {
	_, ok := c.specs[name]
	return ok
}

// open reports how many entries currently hold (or are warming) a
// session.
func (c *sessionCache) open() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *sessionCache) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// graphState is one graph's row in the GET /v1/graphs listing.
type graphState struct {
	Name  string `json:"name"`
	State string `json:"state"` // cold | warming | ready | failed
	// The remaining fields are only set once the session is ready.
	Subgraphs         int     `json:"subgraphs,omitempty"`
	Vertices          int     `json:"vertices,omitempty"`
	Edges             int     `json:"edges,omitempty"`
	ReplicationFactor float64 `json:"replication_factor,omitempty"`
	PrepareMS         float64 `json:"prepare_ms,omitempty"`
	// JobsServed is the total-ever counter — it keeps counting past the
	// session's per-job stats ring.
	JobsServed int `json:"jobs_served,omitempty"`
	// Epoch is the session's deployment epoch: 0 until the first applied
	// mutation batch, then incremented per batch (and per repartition).
	Epoch uint64 `json:"epoch,omitempty"`
	// Stats is the session's full accounting (per-job rows included) —
	// only populated on request (GET /v1/graphs?stats=1), since the job
	// list grows with every served job.
	Stats *ebv.SessionStats `json:"stats,omitempty"`
}

// states lists every configured graph in spec order with its cache
// state. includeStats attaches the full SessionStats per ready graph.
func (c *sessionCache) states(includeStats bool) []graphState {
	c.mu.Lock()
	entries := make(map[string]*cacheEntry, len(c.entries))
	for name, e := range c.entries {
		entries[name] = e
	}
	c.mu.Unlock()

	out := make([]graphState, 0, len(c.names))
	for _, name := range c.names {
		st := graphState{Name: name, State: "cold"}
		if e := entries[name]; e != nil {
			select {
			case <-e.ready:
				if e.err != nil {
					st.State = "failed"
					break
				}
				st.State = "ready"
				prep := e.session.Prepared()
				st.Subgraphs = prep.Assignment.K
				st.Vertices = prep.Graph.NumVertices()
				st.Edges = prep.Graph.NumEdges()
				st.ReplicationFactor = prep.Metrics.ReplicationFactor
				stats := e.session.Stats()
				st.PrepareMS = 1000 * stats.PrepareTime.Seconds()
				st.JobsServed = stats.JobsServed
				st.Epoch = e.session.Epoch()
				if includeStats {
					st.Stats = &stats
				}
			default:
				st.State = "warming"
			}
		}
		out = append(out, st)
	}
	return out
}

// closeAll shuts the cache down: no further acquires, wait (bounded by
// ctx) for warm-ups and pending evictors, then close every remaining
// session. In-flight jobs lose their sessions mid-run and fail with
// ErrSessionClosed — callers drain jobs first (Server.Shutdown does).
func (c *sessionCache) closeAll(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	remaining := make([]*cacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		remaining = append(remaining, e)
	}
	c.entries = make(map[string]*cacheEntry)
	c.mu.Unlock()

	var firstErr error
	for _, e := range remaining {
		select {
		case <-e.ready:
		case <-ctx.Done():
			// Warm-up still in flight past the drain deadline: warm()
			// observes the closed flag when it finishes and closes the
			// session itself.
			continue
		}
		if e.err != nil {
			continue
		}
		if err := e.session.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	done := make(chan struct{})
	go func() { c.evictWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if firstErr == nil {
			firstErr = ctx.Err()
		}
	}
	return firstErr
}
