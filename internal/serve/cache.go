package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
	var opts []ebv.PipelineOption
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
// serving, plus the refcount that defers a retired entry's Close until
// every in-flight job released it.
type cacheEntry struct {
	spec GraphSpec

	// ready is closed when warm-up finished (session or err set).
	ready   chan struct{}
	session *ebv.Session
	err     error
	unbind  func() bool // stops the server lifecycle from closing session

	sem chan struct{} // per-graph run slots

	// Guarded by the owning cache's mu.
	refs    int
	lastUse int64 // cache.clock stamp, for LRU ordering
	warmed  bool  // warm-up finished
	retired bool  // left the cache: LRU-evicted, or its warm-up failed
}

// due reports whether e's session closes now: it is retired, warmed up
// and released by its last job. Called with the cache's mu held. A retired
// entry takes no new references, so this turns true at most once.
func (e *cacheEntry) due() bool { return e.retired && e.warmed && e.refs == 0 }

// closeSession closes a due entry's session (a failed warm-up has none).
// Call it after the cache's mu is unlocked.
func (e *cacheEntry) closeSession() {
	if e.session != nil {
		e.unbind()
		_ = e.session.Close()
	}
}

// sessionCache owns the N prepared graphs: an LRU-managed map from graph
// name to session, warming sessions up in the background on first
// reference. A session closes once, when its entry has left the cache and
// its last job released it, or when the server lifecycle ends, whichever
// comes first.
type sessionCache struct {
	ctx      context.Context // server lifecycle; warm-ups run under it and every session closes when it ends
	specs    map[string]GraphSpec
	names    []string // spec order, for deterministic listings
	capacity int
	perGraph int
	metrics  *serveMetrics

	mu      sync.Mutex
	entries map[string]*cacheEntry
	clock   int64
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
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		return nil, errCacheClosed
	}
	var victim *cacheEntry
	e := c.entries[name]
	if e == nil {
		spec, ok := c.specs[name]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w %q", ErrUnknownGraph, name)
		}
		c.metrics.cacheMiss.Inc("")
		e = &cacheEntry{spec: spec, ready: make(chan struct{}), sem: make(chan struct{}, c.perGraph)}
		c.entries[name] = e
		victim = c.evictLocked(name)
		go c.warm(e)
	} else {
		c.metrics.cacheHits.Inc("")
	}
	e.refs++
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()
	if victim != nil {
		victim.closeSession()
	}

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

// release drops one reference; the last release of a retired entry
// closes its session.
func (c *sessionCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	due := e.due()
	c.mu.Unlock()
	if due {
		e.closeSession()
	}
}

func (h *graphHandle) release() { h.cache.release(h.entry) }

// warm prepares the entry's session under the server lifecycle context
// (NOT a request context: the first requester giving up must not abort a
// warm-up other queued requesters are waiting on), and binds the session
// to that lifecycle: when it ends, the session closes, even if its entry
// was evicted and is still draining.
func (c *sessionCache) warm(e *cacheEntry) {
	p, err := e.spec.pipeline()
	if err == nil {
		e.session, err = p.Open(c.ctx)
	}
	if err == nil {
		e.unbind = context.AfterFunc(c.ctx, func() { _ = e.session.Close() })
	} else {
		e.err = fmt.Errorf("serve: warm up graph %q: %w", e.spec.Name, err)
	}
	c.mu.Lock()
	e.warmed = true
	if err != nil {
		// Drop the failed entry so the next request retries the build
		// (the error stays visible to everyone already waiting on ready).
		if c.entries[e.spec.Name] == e {
			delete(c.entries, e.spec.Name)
		}
		e.retired = true
	}
	due := e.due()
	c.mu.Unlock()
	close(e.ready)
	if due {
		e.closeSession()
	}
}

// evictLocked retires the least-recently-used entry other than keep once
// the cache is over capacity. Called with mu held. Each miss adds one
// entry, so one eviction restores the capacity. The victim leaves the map
// at once; it is returned if its session is due to close now, and
// otherwise closes on its last release or at the end of its warm-up.
func (c *sessionCache) evictLocked(keep string) *cacheEntry {
	if len(c.entries) <= c.capacity {
		return nil
	}
	var victim *cacheEntry
	for name, e := range c.entries {
		if name != keep && (victim == nil || e.lastUse < victim.lastUse) {
			victim = e
		}
	}
	delete(c.entries, victim.spec.Name)
	victim.retired = true
	c.metrics.cacheEvict.Inc("")
	if !victim.due() {
		return nil
	}
	return victim
}

// hasGraph reports whether name is a configured graph. The spec set is
// immutable after construction, so no lock is needed.
func (c *sessionCache) hasGraph(name string) bool {
	_, ok := c.specs[name]
	return ok
}

// open reports how many entries currently hold (or are warming) a
// session.
func (c *sessionCache) open() int { return len(c.live()) }

// live copies the entries map: none once the server lifecycle ended, which
// closed every session.
func (c *sessionCache) live() map[string]*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return nil
	}
	return maps.Clone(c.entries)
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
	entries := c.live()
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
