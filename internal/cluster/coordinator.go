package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// Config configures a Coordinator.
type Config struct {
	// Subgraphs is the partitioned graph; partition p is shipped to the
	// worker that owns p. Required.
	Subgraphs []*bsp.Subgraph
	// Listen is the control-plane listen address (default "127.0.0.1:0").
	Listen string
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// declared dead (default 5s). Any control frame counts as liveness.
	HeartbeatTimeout time.Duration
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Coordinator owns the partitioned graph and drives jobs over registered
// workers. See the package comment for the protocol narrative.
type Coordinator struct {
	subs      []*bsp.Subgraph
	shards    [][]byte            // pre-encoded bsp.WriteSubgraph bytes, by partition
	links     func() []*bsp.Links // bsp.ComponentLinks(subs), built by the first CC job
	hbTimeout time.Duration
	logf      func(string, ...any)
	ln        net.Listener
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextWID  int
	workers  map[int]*workerConn
	owner    []int // owner[part] = worker id, -1 while unowned
	rosterCh chan struct{}
	listener chan event // per-attempt event subscription; nil between attempts
	nextJob  int

	runMu sync.Mutex // serializes Run: one job in flight at a time

	// Under runMu: the data-plane mesh's number and the roster it was wired
	// for (nil after a failed attempt, so the retry moves to a new mesh).
	mesh       int
	meshRoster []int

	// holdAssign, when set (tests only), runs before each assign frame is
	// written — the seam for stretching the window between publishing a
	// partition's owner and that owner holding its shard.
	holdAssign func()
}

// workerConn is the coordinator's handle on one registered worker.
type workerConn struct {
	id       int
	dataAddr string // its data-plane listener, from hello
	conn     net.Conn
	wmu      sync.Mutex // serializes frame writes
	part     int        // under Coordinator.mu; -1 = hot standby
	assigned bool       // under Coordinator.mu; part's shard reached the worker
	dead     bool       // under Coordinator.mu
	hasLinks bool       // under Coordinator.runMu; a CC open carried part's links
	lastSeen atomic.Int64
}

// event is one control-plane occurrence delivered to the attempt in
// flight. Stale events (earlier attempts, dead non-roster workers) are
// filtered by the receiver.
type event struct {
	kind    int
	wid     int
	part    int
	job     int
	attempt int
	steps   int
	width   int
	values  []float64
	errMsg  string
}

const (
	evDead = iota
	evOpened
	evDone
	evFailed
)

// NewCoordinator builds a coordinator for the given partitioned graph and
// starts listening for worker registrations. The coordinator's lifecycle
// context derives from ctx: canceling it tears the coordinator down just
// like Close (in-flight Run calls fail with "coordinator closed"). A nil
// ctx falls back to context.Background for callers that only ever Close.
func NewCoordinator(ctx context.Context, cfg Config) (*Coordinator, error) {
	k := len(cfg.Subgraphs)
	if k == 0 {
		return nil, fmt.Errorf("cluster: no subgraphs")
	}
	shards := make([][]byte, k)
	for p, sub := range cfg.Subgraphs {
		if sub == nil {
			return nil, fmt.Errorf("cluster: subgraph %d is nil", p)
		}
		if sub.Part != p || sub.NumWorkers != k {
			return nil, fmt.Errorf("cluster: subgraph %d labeled part %d of %d", p, sub.Part, sub.NumWorkers)
		}
		var buf bytes.Buffer
		if err := bsp.WriteSubgraph(&buf, sub); err != nil {
			return nil, fmt.Errorf("cluster: encode shard %d: %w", p, err)
		}
		shards[p] = buf.Bytes()
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	hb := cfg.HeartbeatTimeout
	if hb <= 0 {
		hb = defaultHeartbeatTimeout
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	c := &Coordinator{
		subs:      cfg.Subgraphs,
		shards:    shards,
		links:     sync.OnceValue(func() []*bsp.Links { return bsp.ComponentLinks(cfg.Subgraphs) }),
		hbTimeout: hb,
		logf:      logf,
		ln:        ln,
		ctx:       ctx,
		cancel:    cancel,
		workers:   make(map[int]*workerConn),
		owner:     make([]int, k),
		rosterCh:  make(chan struct{}, 1),
	}
	for p := range c.owner {
		c.owner[p] = -1
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// Addr is the control-plane address workers register at.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// NumWorkers is the partition count — the worker quorum a job needs.
func (c *Coordinator) NumWorkers() int { return len(c.subs) }

// NumRegistered is the current number of live registered workers,
// partition owners and standbys both.
func (c *Coordinator) NumRegistered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Close shuts the coordinator down: stops accepting, tells registered
// workers to exit, closes their connections.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ws := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()

	c.cancel()
	_ = c.ln.Close()
	for _, w := range ws {
		_ = writeFrame(&w.wmu, w.conn, msgShutdown, nil)
		_ = w.conn.Close()
	}
	c.wg.Wait()
	return nil
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// signalRoster wakes a waitRoster caller after any ownership change.
func (c *Coordinator) signalRoster() {
	select {
	case c.rosterCh <- struct{}{}:
	default:
	}
}

// emit delivers an event to the attempt in flight, if any. The listener
// buffer is sized for a full attempt's event volume, so the non-blocking
// send only drops when no attempt is reading — which is exactly when the
// event is stale.
func (c *Coordinator) emit(e event) {
	c.mu.Lock()
	ch := c.listener
	c.mu.Unlock()
	if ch != nil {
		select {
		case ch <- e:
		default:
		}
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

// handleConn registers one worker and pumps its control frames until the
// connection dies.
func (c *Coordinator) handleConn(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != msgHello {
		_ = conn.Close()
		return
	}
	var hello helloMsg
	if err := decodeMsg(payload, &hello); err != nil {
		_ = conn.Close()
		return
	}
	// Peers dial the address as given; one they cannot dial would stall
	// every wiring of the roster until its dial timeout.
	if _, port, err := net.SplitHostPort(hello.DataAddr); err != nil || port == "" {
		c.logf("refusing worker at %s: data address %q is not host:port", conn.RemoteAddr(), hello.DataAddr)
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	w := &workerConn{id: c.nextWID, dataAddr: hello.DataAddr, conn: conn, part: -1}
	c.nextWID++
	w.lastSeen.Store(time.Now().UnixNano())
	for p, owner := range c.owner {
		if owner < 0 {
			c.owner[p] = w.id
			w.part = p
			break
		}
	}
	c.workers[w.id] = w
	part := w.part
	c.mu.Unlock()

	if part >= 0 {
		c.logf("worker %d registered (data %s): assigned partition %d", w.id, w.dataAddr, part)
		if !c.assign(w, part) {
			return
		}
	} else {
		c.logf("worker %d registered (data %s): hot standby", w.id, w.dataAddr)
	}

	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			c.markDead(w, err)
			return
		}
		w.lastSeen.Store(time.Now().UnixNano())
		switch typ {
		case msgHeartbeat:
			// liveness only
		case msgOpened:
			var m openedMsg
			if err := decodeMsg(payload, &m); err != nil {
				c.markDead(w, err)
				return
			}
			c.emit(event{kind: evOpened, wid: w.id, job: m.Job, attempt: m.Attempt})
		case msgDone:
			e, err := decodeDone(payload, c.subs)
			if err != nil {
				c.markDead(w, err)
				return
			}
			e.wid = w.id
			c.emit(e)
		case msgFailed:
			var m failedMsg
			if err := decodeMsg(payload, &m); err != nil {
				c.markDead(w, err)
				return
			}
			c.emit(event{kind: evFailed, wid: w.id, job: m.Job, attempt: m.Attempt, errMsg: m.Err})
		default:
			c.markDead(w, fmt.Errorf("unexpected control frame %#x", typ))
			return
		}
	}
}

// assign ships partition ownership and the shard bytes to w, and only then
// makes w roster-eligible: owner[part] is published before the write (so
// no second worker claims the partition), but a job's open must not
// overtake the assign frame on w's connection — the agent would answer "no
// partition assigned" and burn the attempt. A failed write marks w dead
// and reports false.
func (c *Coordinator) assign(w *workerConn, part int) bool {
	if c.holdAssign != nil {
		c.holdAssign()
	}
	if err := writeFrame(&w.wmu, w.conn, msgAssign, c.shards[part]); err != nil {
		c.markDead(w, err)
		return false
	}
	c.mu.Lock()
	w.assigned = true
	c.mu.Unlock()
	c.signalRoster()
	return true
}

// markDead removes a worker, frees its partition, and promotes the
// longest-waiting standby into the vacancy. Idempotent: the reader
// goroutine and the heartbeat monitor may both report the same death.
func (c *Coordinator) markDead(w *workerConn, cause error) {
	c.mu.Lock()
	if c.closed || w.dead {
		c.mu.Unlock()
		_ = w.conn.Close()
		return
	}
	w.dead = true
	delete(c.workers, w.id)
	freed := w.part
	if freed >= 0 && c.owner[freed] == w.id {
		c.owner[freed] = -1
	}
	var promotee *workerConn
	if freed >= 0 {
		for _, s := range c.workers {
			if s.part < 0 && (promotee == nil || s.id < promotee.id) {
				promotee = s
			}
		}
		if promotee != nil {
			c.owner[freed] = promotee.id
			promotee.part = freed
		}
	}
	c.mu.Unlock()
	_ = w.conn.Close()

	c.logf("worker %d (partition %d) dead: %v", w.id, freed, cause)
	if promotee != nil {
		c.logf("promoting standby worker %d to partition %d", promotee.id, freed)
		c.assign(promotee, freed)
	}
	c.emit(event{kind: evDead, wid: w.id})
	c.signalRoster()
}

// monitor declares workers dead after hbTimeout of control-plane silence.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.hbTimeout / 2)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-c.hbTimeout).UnixNano()
		c.mu.Lock()
		var stale []*workerConn
		for _, w := range c.workers {
			if w.lastSeen.Load() < cutoff {
				stale = append(stale, w)
			}
		}
		c.mu.Unlock()
		for _, w := range stale {
			c.markDead(w, fmt.Errorf("no heartbeat for %v", c.hbTimeout))
		}
	}
}

// waitRoster blocks until every partition has an owner that holds its
// shard (see assign) and returns the owners indexed by partition.
func (c *Coordinator) waitRoster(ctx context.Context) ([]*workerConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("cluster: coordinator closed")
		}
		roster := make([]*workerConn, len(c.owner))
		full := true
		for p, wid := range c.owner {
			if wid < 0 || !c.workers[wid].assigned {
				full = false
				break
			}
			roster[p] = c.workers[wid]
		}
		c.mu.Unlock()
		if full {
			return roster, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.ctx.Done():
			return nil, fmt.Errorf("cluster: coordinator closed")
		case <-c.rosterCh:
		}
	}
}

// Run executes one job to completion, retrying through worker failures up
// to spec.MaxAttempts times. With checkpointing enabled, each retry
// restores from the latest complete checkpoint epoch; without it, retries
// restart from superstep 0. Jobs are serialized: concurrent Run calls
// queue.
func (c *Coordinator) Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	// A spec no worker could run is rejected before it queues, consumes a
	// job id or contacts a worker.
	prog, err := spec.Program()
	if err != nil {
		return nil, err
	}
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	c.runMu.Lock()
	defer c.runMu.Unlock()
	var links []*bsp.Links // none but a CC job's
	if _, cc := prog.(*apps.CC); cc {
		links = c.links()
	}
	c.mu.Lock()
	c.nextJob++
	job := c.nextJob
	c.mu.Unlock()

	var lastErr error
	max := spec.maxAttempts()
	for attempt := 1; attempt <= max; attempt++ {
		res, err := c.runAttempt(ctx, job, attempt, spec, cfg.ValueWidth, links)
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		lastErr = err
		c.meshRoster = nil // whatever failed, the retry rewires
		if ctx.Err() != nil || c.isClosed() {
			break
		}
		c.logf("job %d attempt %d/%d failed: %v", job, attempt, max, err)
	}
	return nil, fmt.Errorf("cluster: job %d failed: %w", job, lastErr)
}

// runAttempt drives one attempt: roster, open, start, collect. An open
// carries links[p] to p's owner unless an earlier one already did: the
// agent keeps them beside its shard.
func (c *Coordinator) runAttempt(ctx context.Context, job, attempt int, spec JobSpec, width int, links []*bsp.Links) (*JobResult, error) {
	k := len(c.subs)
	ch := make(chan event, 4*k+16)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: coordinator closed")
	}
	c.listener = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.listener == ch {
			c.listener = nil
		}
		c.mu.Unlock()
	}()

	roster, err := c.waitRoster(ctx)
	if err != nil {
		return nil, err
	}
	ids := make([]int, k)
	addrs := make([]string, k)
	for p, w := range roster {
		ids[p], addrs[p] = w.id, w.dataAddr
	}
	if !slices.Equal(ids, c.meshRoster) {
		c.mesh++
		c.meshRoster = ids
	}

	restoreStep := -1
	if attempt > 1 && spec.checkpointing() {
		step, ok, err := SelectRestoreEpoch(spec.CheckpointDir, job, k)
		if err != nil {
			return nil, err
		}
		if ok {
			restoreStep = step
			c.logf("job %d attempt %d: restoring from checkpoint epoch %d", job, attempt, step)
		} else {
			c.logf("job %d attempt %d: no complete checkpoint epoch; restarting from step 0", job, attempt)
		}
	}

	open := openMsg{Job: job, Attempt: attempt, Spec: spec, RestoreStep: restoreStep, Mesh: c.mesh, Addrs: addrs}
	for p, w := range roster {
		open.Links = nil
		if links != nil && !w.hasLinks {
			open.Links = links[p]
		}
		if err := writeMsg(&w.wmu, w.conn, msgOpen, open); err != nil {
			c.markDead(w, err)
			return nil, fmt.Errorf("send open to worker %d: %w", w.id, err)
		}
		w.hasLinks = w.hasLinks || open.Links != nil
	}

	if err := c.settle(ctx, ch, roster, job, attempt, evOpened, "open", func(int, event) error { return nil }); err != nil {
		return nil, err
	}

	// Every node has opened the job, so no bundle of it can reach a node
	// that has not.
	start := startMsg{Job: job, Attempt: attempt}
	for _, w := range roster {
		if err := writeMsg(&w.wmu, w.conn, msgStart, start); err != nil {
			c.markDead(w, err)
			return nil, fmt.Errorf("send start to worker %d: %w", w.id, err)
		}
	}
	c.logf("job %d attempt %d: %d workers running on mesh %d", job, attempt, k, c.mesh)

	values := make([]*graph.ValueMatrix, k)
	steps := -1
	err = c.settle(ctx, ch, roster, job, attempt, evDone, "run", func(p int, e event) error {
		switch {
		case e.part != p:
			return fmt.Errorf("worker %d returned partition %d, owns %d", e.wid, e.part, p)
		case e.width != width:
			return fmt.Errorf("worker %d returned width %d values, want %d", e.wid, e.width, width)
		case steps >= 0 && steps != e.steps:
			return fmt.Errorf("workers disagree on step count: %d vs %d", steps, e.steps)
		}
		steps = e.steps
		values[p] = &graph.ValueMatrix{Width: e.width, Data: e.values}
		return nil
	})
	if err != nil {
		return nil, err
	}

	vals, covered, err := bsp.AssembleValues(c.subs, values, width)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Job:          job,
		Steps:        steps,
		Values:       vals,
		Covered:      covered,
		RestoredFrom: restoreStep,
	}, nil
}

// settle collects every roster worker's answer to one phase of an
// attempt: its reply (an event of kind, checked by reply), a failure
// report, or its death. The first failure is returned only once every
// worker has settled, so a worker that died in this attempt is out of the
// next roster before a retry opens on it: an open sent to a dead worker
// would stall its peers' wiring until their dial timeout.
func (c *Coordinator) settle(ctx context.Context, ch chan event, roster []*workerConn, job, attempt, kind int,
	phase string, reply func(part int, e event) error) error {
	slot := make(map[int]int, len(roster))
	for p, w := range roster {
		slot[w.id] = p
	}
	settled := make([]bool, len(roster))
	var first error
	for n := 0; n < len(roster); {
		e, err := c.nextEvent(ctx, ch)
		if err != nil {
			return err
		}
		p, ok := slot[e.wid]
		if !ok || settled[p] || e.kind != evDead && (e.job != job || e.attempt != attempt) {
			continue // not this attempt's, or already settled
		}
		switch e.kind {
		case kind:
			err = reply(p, e)
		case evDead:
			err = fmt.Errorf("worker %d (partition %d) died during %s", e.wid, p, phase)
		case evFailed:
			err = fmt.Errorf("worker %d failed to %s partition %d: %s", e.wid, phase, p, e.errMsg)
		default:
			continue
		}
		settled[p] = true
		n++
		if first == nil {
			first = err
		}
	}
	return first
}

// nextEvent receives one attempt event, honoring cancellation.
func (c *Coordinator) nextEvent(ctx context.Context, ch chan event) (event, error) {
	select {
	case e := <-ch:
		return e, nil
	case <-ctx.Done():
		return event{}, ctx.Err()
	case <-c.ctx.Done():
		return event{}, fmt.Errorf("cluster: coordinator closed")
	}
}
