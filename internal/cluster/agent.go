package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ebv/internal/apps"
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
	// data-plane mesh wiring. Default 30s.
	DialTimeout time.Duration
	// HeartbeatInterval is how often the agent sends liveness frames
	// (default 1s). Must be well under the coordinator's timeout.
	HeartbeatInterval time.Duration
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Agent is one worker process's control-plane client: it registers with
// the coordinator, receives a partition shard (or waits as a hot
// standby), and serves job attempts until told to shut down. Its data
// plane is one listener for its lifetime and one mesh node per roster:
// the coordinator numbers each mesh, and the node serves every attempt
// opened under that number.
type Agent struct {
	cfg  AgentConfig
	logf func(string, ...any)

	wmu sync.Mutex // serializes control-frame writes

	mu     sync.Mutex
	killed bool
	conn   net.Conn            // control connection
	ln     transport.Listener  // data-plane listener, bound for the agent's lifetime
	node   *transport.MeshNode // the roster's data-plane node; nil before wiring and after a failed attempt
	mesh   int                 // the coordinator's number for node's mesh

	// wrapDataListener, when set (tests only), wraps the data-plane
	// listener — the seam for corrupting agent↔agent bytes.
	wrapDataListener func(transport.Listener) transport.Listener
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
// data listener, data mesh — without a goodbye, exactly the wire
// footprint of SIGKILL. Run returns ErrAgentKilled.
func (a *Agent) Kill() {
	a.mu.Lock()
	a.killed = true
	conn, ln := a.conn, a.ln
	a.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if ln != nil {
		_ = ln.Close()
	}
	a.closeNode()
}

func (a *Agent) isKilled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.killed
}

// closeNode closes the agent's mesh node, if any, so the next open
// rewires.
func (a *Agent) closeNode() {
	a.mu.Lock()
	node := a.node
	a.node = nil
	a.mu.Unlock()
	if node != nil {
		_ = node.Close()
	}
}

// pendingAttempt is an attempt opened on the node and waiting for its
// start.
type pendingAttempt struct {
	job     int
	attempt int
	prog    bsp.Program
	links   *bsp.Links // the partition's component links, for CC alone
	cfg     bsp.Config // ValueWidth resolved, checkpoint sink and restore attached
	tr      transport.Transport
}

// Run registers with the coordinator and serves assignments and job
// attempts until the coordinator says shutdown (nil), the context is
// canceled, the connection is lost, or Kill is called (ErrAgentKilled).
func (a *Agent) Run(ctx context.Context) error {
	tcp, err := net.Listen("tcp", net.JoinHostPort(a.cfg.Host, "0"))
	if err != nil {
		return fmt.Errorf("cluster: bind data listener: %w", err)
	}
	ln := tcp.(transport.Listener) // a TCP listener takes deadlines
	if a.wrapDataListener != nil {
		ln = a.wrapDataListener(ln)
	}
	defer ln.Close()
	defer a.closeNode()
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
	a.conn, a.ln = conn, ln
	a.mu.Unlock()
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()

	if err := writeMsg(&a.wmu, conn, msgHello, helloMsg{DataAddr: tcp.Addr().String()}); err != nil {
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
		links   *bsp.Links // sub's component links, from the first CC open since its assign
		pending *pendingAttempt
	)
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			if a.isKilled() {
				return ErrAgentKilled
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("cluster: coordinator connection lost: %w", err)
		}
		var job, attempt int
		switch typ {
		case msgAssign:
			s, err := bsp.ReadSubgraph(bytes.NewReader(payload))
			if err != nil {
				return fmt.Errorf("cluster: decode shard: %w", err)
			}
			sub, links = s, nil
			a.logf("assigned partition %d of %d (%d local vertices)", s.Part, s.NumWorkers, s.NumLocalVertices())

		case msgOpen:
			var m openMsg
			if err := decodeMsg(payload, &m); err != nil {
				return fmt.Errorf("cluster: bad open: %w", err)
			}
			if pending != nil { // superseded: its attempt failed elsewhere
				_ = pending.tr.Close()
			}
			links = cmp.Or(m.Links, links)
			job, attempt = m.Job, m.Attempt
			pending, err = a.open(ctx, sub, links, m)

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
			job, attempt = p.job, p.attempt
			err = a.serve(ctx, sub, p)

		case msgShutdown:
			a.logf("coordinator shutdown")
			return nil
		}
		if err != nil {
			if a.isKilled() {
				return ErrAgentKilled
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Peers blocked on this worker's bundles fail instead of
			// hanging, and the retry, on a new mesh, rewires.
			a.logf("job %d attempt %d failed: %v", job, attempt, err)
			a.closeNode()
			a.sendFailed(job, attempt, err)
		}
	}
}

// open handles one open message: load the restore checkpoint if asked,
// wire the mesh unless the node already serves it, open the job on the
// node and report opened. An error fails the attempt, not the agent.
func (a *Agent) open(ctx context.Context, sub *bsp.Subgraph, links *bsp.Links, m openMsg) (*pendingAttempt, error) {
	if sub == nil {
		return nil, fmt.Errorf("no partition assigned")
	}
	if len(m.Addrs) != sub.NumWorkers {
		return nil, fmt.Errorf("open lists %d addresses, want %d", len(m.Addrs), sub.NumWorkers)
	}
	prog, err := m.Spec.Program()
	if err != nil {
		return nil, err
	}
	cfg, err := m.Spec.config()
	if err != nil {
		return nil, err
	}
	p := &pendingAttempt{job: m.Job, attempt: m.Attempt, prog: prog, cfg: cfg}
	if _, cc := prog.(*apps.CC); cc {
		p.links = links
	}
	if m.RestoreStep >= 0 {
		if !m.Spec.checkpointing() {
			return nil, fmt.Errorf("restore step %d without a checkpoint dir", m.RestoreStep)
		}
		path := CheckpointPath(m.Spec.CheckpointDir, m.Job, sub.Part, m.RestoreStep)
		meta, cp, err := ReadCheckpointFile(path)
		if err != nil {
			return nil, fmt.Errorf("load checkpoint: %w", err)
		}
		if meta.Job != m.Job || meta.Part != sub.Part || meta.Workers != sub.NumWorkers ||
			meta.Width != cfg.ValueWidth || cp.Step != m.RestoreStep {
			return nil, fmt.Errorf("checkpoint %s metadata mismatch", path)
		}
		p.cfg.Resume = []*bsp.Checkpoint{cp}
		a.logf("job %d attempt %d: restoring partition %d from epoch %d", m.Job, m.Attempt, sub.Part, cp.Step)
	}
	if m.Spec.checkpointing() {
		meta := CheckpointMeta{Job: m.Job, Part: sub.Part, Workers: sub.NumWorkers, Width: cfg.ValueWidth}
		p.cfg.CheckpointEvery = m.Spec.CheckpointEvery
		p.cfg.CheckpointSink = func(_ int, cp *bsp.Checkpoint) error {
			return WriteCheckpointFile(m.Spec.CheckpointDir, meta, cp)
		}
	}

	a.mu.Lock()
	node, mesh := a.node, a.mesh
	a.mu.Unlock()
	if node == nil || mesh != m.Mesh {
		a.closeNode()
		if node, err = transport.WireMeshNode(ctx, sub.Part, uint32(m.Mesh), m.Addrs, a.ln, a.cfg.DialTimeout); err != nil {
			return nil, fmt.Errorf("wire data mesh %d: %w", m.Mesh, err)
		}
		a.mu.Lock()
		killed := a.killed
		if !killed {
			a.node, a.mesh = node, m.Mesh
		}
		a.mu.Unlock()
		if killed {
			_ = node.Close()
			return nil, ErrAgentKilled
		}
	}
	// Jobs are serialized and their ids increase, so the cluster job id is
	// a valid tag on a mesh that serves many of them.
	if p.tr, err = node.OpenJob(uint32(m.Job), cfg.ValueWidth); err != nil {
		return nil, err
	}
	// A failed write surfaces in the read loop.
	_ = writeMsg(&a.wmu, a.conn, msgOpened, openedMsg{Job: m.Job, Attempt: m.Attempt})
	return p, nil
}

// serve runs one opened attempt to completion on this worker: the BSP
// worker loop (cutting checkpoints if the spec asks), then the values back
// to the coordinator. The job closes with it; the node stays up for the
// next.
func (a *Agent) serve(ctx context.Context, sub *bsp.Subgraph, p *pendingAttempt) error {
	defer p.tr.Close()
	res, err := bsp.RunWorker(ctx, sub, p.links, p.prog, p.tr, p.cfg)
	if err != nil {
		return err
	}
	a.logf("job %d attempt %d: partition %d done in %d steps", p.job, p.attempt, sub.Part, res.Steps)
	return writeFrame(&a.wmu, a.conn, msgDone, encodeDone(p.job, p.attempt, sub.Part, res.Steps, res.Values))
}

// sendFailed reports an attempt failure, best effort.
func (a *Agent) sendFailed(job, attempt int, cause error) {
	_ = writeMsg(&a.wmu, a.conn, msgFailed, failedMsg{Job: job, Attempt: attempt, Err: cause.Error()})
}
