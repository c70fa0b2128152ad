package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/transport"
)

// ErrAgentKilled is returned by Agent.Run after Kill — the test hook that
// simulates kill -9 by abruptly closing every socket.
var ErrAgentKilled = errors.New("cluster: agent killed")

// AgentConfig configures one worker process's agent.
type AgentConfig struct {
	// Coordinator is the coordinator's control-plane address. Required.
	Coordinator string
	// Host is the address this worker advertises for its data-plane
	// listener (default "127.0.0.1").
	Host string
	// DialTimeout bounds both the initial coordinator dial (with
	// exponential backoff, so the coordinator may start late) and each
	// job's data-plane mesh wiring. Default 30s.
	DialTimeout time.Duration
	// HeartbeatInterval is how often the agent sends liveness frames
	// (default 1s). Must be well under the coordinator's timeout.
	HeartbeatInterval time.Duration
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Agent is one worker process's control-plane client: it registers with
// the coordinator, receives a partition shard (or waits as a hot
// standby), and serves job attempts until told to shut down.
type Agent struct {
	cfg  AgentConfig
	logf func(string, ...any)

	wmu sync.Mutex // serializes control-frame writes

	mu     sync.Mutex
	killed bool
	conn   net.Conn     // control connection
	ln     net.Listener // pending data-plane listener, between prepare and start
	node   *transport.MeshNode

	// wrapDataListener, when set (tests only), wraps each attempt's
	// data-plane listener — the seam for corrupting agent↔agent bytes.
	wrapDataListener func(net.Listener) net.Listener
}

// NewAgent builds an agent; Run does the work.
func NewAgent(cfg AgentConfig) *Agent {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	return &Agent{cfg: cfg, logf: logf}
}

// RunAgent is NewAgent + Run.
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	return NewAgent(cfg).Run(ctx)
}

// Kill abruptly closes every socket the agent holds — control connection,
// pending data listener, live data mesh — without a goodbye, exactly the
// wire footprint of SIGKILL. Run returns ErrAgentKilled.
func (a *Agent) Kill() {
	a.mu.Lock()
	a.killed = true
	conn, ln, node := a.conn, a.ln, a.node
	a.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if ln != nil {
		_ = ln.Close()
	}
	if node != nil {
		_ = node.Close()
	}
}

func (a *Agent) isKilled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.killed
}

// pendingAttempt is the window between a prepare (data listener bound,
// address reported) and its start.
type pendingAttempt struct {
	job     int
	attempt int
	spec    JobSpec
	cfg     bsp.Config // spec.config(): ValueWidth is the resolved width
	restore *bsp.Checkpoint
	ln      net.Listener
}

// Run registers with the coordinator and serves assignments and job
// attempts until the coordinator says shutdown (nil), the context is
// canceled, the connection is lost, or Kill is called (ErrAgentKilled).
func (a *Agent) Run(ctx context.Context) error {
	conn, err := transport.DialBackoff(ctx, a.cfg.Coordinator, time.Now().Add(a.cfg.DialTimeout))
	if err != nil {
		return fmt.Errorf("cluster: dial coordinator %s: %w", a.cfg.Coordinator, err)
	}
	a.mu.Lock()
	if a.killed {
		a.mu.Unlock()
		_ = conn.Close()
		return ErrAgentKilled
	}
	a.conn = conn
	a.mu.Unlock()
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()

	if err := writeMsg(&a.wmu, conn, msgHello, helloMsg{Host: a.cfg.Host}); err != nil {
		return fmt.Errorf("cluster: register: %w", err)
	}

	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		ticker := time.NewTicker(a.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-ticker.C:
				// A failed write surfaces in the read loop.
				_ = writeFrame(&a.wmu, conn, msgHeartbeat, nil)
			}
		}
	}()

	var (
		sub     *bsp.Subgraph
		pending *pendingAttempt
	)
	for {
		typ, payload, err := transport.ReadControlFrame(conn)
		if err != nil {
			if a.isKilled() {
				return ErrAgentKilled
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("cluster: coordinator connection lost: %w", err)
		}
		switch typ {
		case msgAssign:
			s, err := bsp.ReadSubgraph(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cluster: decode shard: %w", err)
			}
			sub = s
			a.logf("assigned partition %d of %d (%d local vertices)", s.Part, s.NumWorkers, s.NumLocalVertices())

		case msgPrepare:
			var m prepareMsg
			if err := decodeMsg(payload, &m); err != nil {
				return fmt.Errorf("cluster: bad prepare: %w", err)
			}
			pending = a.prepare(sub, pending, m)

		case msgStart:
			var m startMsg
			if err := decodeMsg(payload, &m); err != nil {
				return fmt.Errorf("cluster: bad start: %w", err)
			}
			if pending == nil || pending.job != m.Job || pending.attempt != m.Attempt {
				a.logf("ignoring stale start for job %d attempt %d", m.Job, m.Attempt)
				continue
			}
			p := pending
			pending = nil
			if err := a.serve(ctx, sub, p, m.Addrs); err != nil {
				if a.isKilled() {
					return ErrAgentKilled
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
				a.logf("job %d attempt %d failed: %v", p.job, p.attempt, err)
				a.sendFailed(sub, p.job, p.attempt, err)
			}

		case msgShutdown:
			a.logf("coordinator shutdown")
			return nil
		}
	}
}

// prepare handles one prepare message: close any superseded pending
// listener, load the restore checkpoint if asked, bind a fresh data-plane
// listener, and report its address. Failures are reported to the
// coordinator (failing the attempt, not the agent).
func (a *Agent) prepare(sub *bsp.Subgraph, old *pendingAttempt, m prepareMsg) *pendingAttempt {
	if old != nil {
		_ = old.ln.Close()
		a.mu.Lock()
		if a.ln == old.ln {
			a.ln = nil
		}
		a.mu.Unlock()
	}
	fail := func(err error) *pendingAttempt {
		a.logf("prepare job %d attempt %d failed: %v", m.Job, m.Attempt, err)
		a.sendFailed(sub, m.Job, m.Attempt, err)
		return nil
	}
	if sub == nil {
		return fail(fmt.Errorf("no partition assigned"))
	}
	cfg, err := m.Spec.config()
	if err != nil {
		return fail(err)
	}

	var restore *bsp.Checkpoint
	if m.RestoreStep >= 0 {
		if !m.Spec.checkpointing() {
			return fail(fmt.Errorf("restore step %d without a checkpoint dir", m.RestoreStep))
		}
		path := CheckpointPath(m.Spec.CheckpointDir, m.Job, sub.Part, m.RestoreStep)
		meta, cp, err := ReadCheckpointFile(path)
		if err != nil {
			return fail(fmt.Errorf("load checkpoint: %w", err))
		}
		if meta.Job != m.Job || meta.Part != sub.Part || meta.Workers != sub.NumWorkers ||
			meta.Width != cfg.ValueWidth || cp.Step != m.RestoreStep {
			return fail(fmt.Errorf("checkpoint %s metadata mismatch", path))
		}
		restore = cp
		a.logf("job %d attempt %d: restoring partition %d from epoch %d", m.Job, m.Attempt, sub.Part, cp.Step)
	}

	ln, err := net.Listen("tcp", net.JoinHostPort(a.cfg.Host, "0"))
	if err != nil {
		return fail(fmt.Errorf("bind data listener: %w", err))
	}
	if a.wrapDataListener != nil {
		ln = a.wrapDataListener(ln)
	}
	a.mu.Lock()
	if a.killed {
		a.mu.Unlock()
		_ = ln.Close()
		return nil
	}
	a.ln = ln
	a.mu.Unlock()

	if err := writeMsg(&a.wmu, a.conn, msgPrepared, preparedMsg{
		Job: m.Job, Attempt: m.Attempt, Part: sub.Part, DataAddr: ln.Addr().String(),
	}); err != nil {
		_ = ln.Close()
		return nil // read loop surfaces the conn error
	}
	return &pendingAttempt{job: m.Job, attempt: m.Attempt, spec: m.Spec, cfg: cfg, restore: restore, ln: ln}
}

// serve runs one job attempt to completion on this worker: wire this
// attempt's mesh node through the pending listener, open the job on it,
// run the BSP worker loop (cutting checkpoints if the spec asks), send the
// values back. Closing the node on the way out is safe while slower peers
// are still collecting the final superstep (see MeshNode's departure
// rule).
func (a *Agent) serve(ctx context.Context, sub *bsp.Subgraph, p *pendingAttempt, addrs []string) error {
	if len(addrs) != sub.NumWorkers {
		_ = p.ln.Close()
		return fmt.Errorf("start lists %d addresses, want %d", len(addrs), sub.NumWorkers)
	}
	prog, err := p.spec.Program()
	if err != nil {
		_ = p.ln.Close()
		return err
	}
	node, err := transport.WireMeshNode(ctx, sub.Part, addrs, p.ln, a.cfg.DialTimeout)
	a.mu.Lock()
	if a.ln == p.ln {
		a.ln = nil
	}
	if err == nil {
		if a.killed {
			a.mu.Unlock()
			_ = node.Close()
			return ErrAgentKilled
		}
		a.node = node
	}
	a.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wire data mesh: %w", err)
	}
	defer func() {
		a.mu.Lock()
		if a.node == node {
			a.node = nil
		}
		a.mu.Unlock()
		_ = node.Close()
	}()
	// The mesh is this attempt's alone, so the cluster job id is tag enough.
	cfg := p.cfg
	tr, err := node.OpenJob(uint32(p.job), cfg.ValueWidth)
	if err != nil {
		return err
	}
	if p.spec.checkpointing() {
		meta := CheckpointMeta{Job: p.job, Part: sub.Part, Workers: sub.NumWorkers, Width: cfg.ValueWidth}
		cfg.CheckpointEvery = p.spec.CheckpointEvery
		cfg.CheckpointSink = func(_ int, cp *bsp.Checkpoint) error {
			return WriteCheckpointFile(p.spec.CheckpointDir, meta, cp)
		}
	}
	res, err := bsp.RunWorker(ctx, sub, prog, tr, cfg, p.restore)
	if err != nil {
		return err
	}
	a.logf("job %d attempt %d: partition %d done in %d steps", p.job, p.attempt, sub.Part, res.Steps)
	return writeFrame(&a.wmu, a.conn, msgDone, encodeDone(p.job, p.attempt, sub.Part, res.Steps, res.Values))
}

// sendFailed reports an attempt failure, best effort.
func (a *Agent) sendFailed(sub *bsp.Subgraph, job, attempt int, cause error) {
	part := -1
	if sub != nil {
		part = sub.Part
	}
	_ = writeMsg(&a.wmu, a.conn, msgFailed, failedMsg{Job: job, Attempt: attempt, Part: part, Err: cause.Error()})
}
