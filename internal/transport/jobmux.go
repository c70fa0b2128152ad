package transport

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
)

// TCPMeshDeployment is the TCP Deployment: a full loopback mesh of k
// MeshNodes wired once and shared by every job. It is the in-process form
// of the one TCP data plane — a cluster agent (cmd/ebv-worker) holds one
// MeshNode of the same kind per roster.
type TCPMeshDeployment struct {
	k      int
	nodes  []*MeshNode
	mu     sync.Mutex
	closed bool
}

var _ Deployment = (*TCPMeshDeployment)(nil)

// NewTCPMeshDeployment binds k loopback listeners and wires one MeshNode
// per worker through them, concurrently. Canceling ctx aborts the wiring
// (not the finished deployment — tear that down with Close).
func NewTCPMeshDeployment(ctx context.Context, k int) (*TCPMeshDeployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return nil, fmt.Errorf("transport: need at least 1 worker, got %d", k)
	}
	listeners := make([]Listener, k)
	addrs := make([]string, k)
	for i := range listeners {
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("transport: listen worker %d: %w", i, err)
		}
		defer ln.Close() // the mesh is wired once, so its listeners go with this call
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	// The first node to fail aborts the others' wiring instead of leaving
	// them to wait out the dial timeout.
	wctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	d := &TCPMeshDeployment{k: k, nodes: make([]*MeshNode, k)}
	var wg sync.WaitGroup
	for i := range d.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := WireMeshNode(wctx, i, 0, addrs, listeners[i], 0)
			if err != nil {
				fail(err)
				return
			}
			d.nodes[i] = n
		}()
	}
	wg.Wait()
	if err := context.Cause(wctx); err != nil {
		for _, n := range d.nodes {
			if n != nil {
				_ = n.Close()
			}
		}
		return nil, err
	}
	return d, nil
}

// NumWorkers implements Deployment.
func (d *TCPMeshDeployment) NumWorkers() int { return d.k }

// WireBytes reports the total bundle bytes this deployment's nodes have
// written to their peers since construction, relayed blocks included — the
// wire-volume axis EXPERIMENTS.md and ebv-bench track across codec
// changes. Self-delivery never touches the wire and is not counted.
func (d *TCPMeshDeployment) WireBytes() int64 { return d.WireStats().Bytes }

// WireStats counts what a TCP mesh's nodes have written to their peers
// since construction: bytes (bundle headers, block headers and columns),
// bundles, blocks and rows. A relayed block is written, and counted, once
// per bundle that carries it.
type WireStats struct{ Bytes, Bundles, Blocks, Rows int64 }

// WireStats sums the nodes' wire counters.
func (d *TCPMeshDeployment) WireStats() WireStats {
	var st WireStats
	for _, n := range d.nodes {
		st.Bytes += n.wire.bytes.Load()
		st.Bundles += n.wire.bundles.Load()
		st.Blocks += n.wire.blocks.Load()
		st.Rows += n.wire.rows.Load()
	}
	return st
}

// OpenJob implements Deployment: the job is registered on every node's
// demux table before any transport is returned, so a fast worker's first
// frame always finds its inbox.
func (d *TCPMeshDeployment) OpenJob(job uint32, width int) ([]Transport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	ts := make([]Transport, d.k)
	for i, n := range d.nodes {
		j, err := n.OpenJob(job, width)
		if err != nil {
			for _, t := range ts[:i] {
				_ = t.Close()
			}
			return nil, err
		}
		ts[i] = j
	}
	return ts, nil
}

// Close implements Deployment: every open job fails with ErrClosed, all
// connections close, and the demux readers are waited out. The cause is
// recorded on every node before any connection closes: tearing node A
// down ends node B's connection to it, and without the pre-marking pass
// a racing B could report that as its failure cause instead of ErrClosed.
func (d *TCPMeshDeployment) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	for _, n := range d.nodes {
		n.markFailed(ErrClosed)
	}
	for _, n := range d.nodes {
		_ = n.Close()
	}
	return nil
}

// jobFrameBuffer bounds each (job, src) inbox. In one step a worker takes
// at most one bundle from each peer (a round's source differs from every
// other round's), and no worker can finish a step before every worker has
// started it, so at most 2 bundles are outstanding per (job, src). A full
// inbox means protocol violation, and the demux fails the job rather than
// head-of-line-block every other job on the connection.
const jobFrameBuffer = 4

// smallBlockBytes is the radix rule's threshold T: the exchange after one
// in which every block encoded to at most this many bytes runs the radix-2
// schedule. BenchmarkExchangeBlockSize puts the crossover between the
// direct and radix-2 exchange at k = 8 here (EXPERIMENTS.md).
const smallBlockBytes = 4096

// MeshNode is one worker's endpoint of a TCP mesh (see WireMeshNode): the
// connections to its k-1 peers, shared by every job opened on the node.
// Many jobs multiplex over the same connections, so every bundle is tagged
// with its job id and a per-connection demux goroutine routes incoming
// bundles to the owning job's inbox. Interleaved jobs' batches therefore
// never cross: a bundle for job j is only ever delivered to job j's
// Exchange, a bundle whose width disagrees with the job's fails that job
// loudly, a bundle for a closed job (an id below the watermark, see admit)
// is dropped as a straggler, and one for an id not yet admitted kills the
// node (cross-job corruption is a protocol violation, not noise). The wire
// is the CRC-sealed EBV6 bundle of fixed-width columns (bundle.go).
//
// A node is wired once and serves every job opened on it until it fails
// or closes; nothing closes it between jobs. So a peer's connection
// ending at all, cleanly or not, fails the node, as a truncated or corrupt
// bundle does. Every node opens a job before any node sends a bundle of it
// (the cluster's start round; one OpenJob call on the loopback
// deployment). The demux readers start with the node's first job: a node
// with no job yet does not see a peer leave, so the failure is named by
// the nodes that were using the peer, not by a cascade through the rest.
type MeshNode struct {
	worker  int
	k       int
	conns   []net.Conn // conns[peer]; nil at index == worker
	bufw    []*bufio.Writer
	wmu     []sync.Mutex // guards bufw[peer] and bundle atomicity on the wire
	readers sync.WaitGroup
	radix   int                                                 // nonzero: every job's exchanges run this radix (tests)
	wire    struct{ bytes, bundles, blocks, rows atomic.Int64 } // written to peers (see WireStats)

	mu       sync.Mutex
	jobs     map[uint32]*muxJob // open jobs
	next     uint64             // job-id watermark (see admit)
	started  bool               // demux readers running
	failed   error              // node death (conn error, corrupt or cross-job frame, Close); nil while healthy
	tornDown bool               // fail already ran (jobs failed, connections closed)
}

func newMeshNode(worker int, conns []net.Conn) *MeshNode {
	k := len(conns)
	return &MeshNode{
		worker: worker,
		k:      k,
		conns:  conns,
		bufw:   make([]*bufio.Writer, k),
		wmu:    make([]sync.Mutex, k),
		jobs:   make(map[uint32]*muxJob),
	}
}

// jobFrame is one checked bundle queued for a job's Exchange: the blocks
// addressed to this worker decoded, the rest kept verbatim for relaying.
type jobFrame struct {
	step, round int
	flags       byte
	in          []srcBatch
	relay       []wireBlock
}

// srcBatch is a delivered block: the batch src handed to Exchange.
type srcBatch struct {
	src   int
	batch *MessageBatch
}

// recycle returns the frame's decoded batches to the pool.
func (f jobFrame) recycle() {
	for _, sb := range f.in {
		RecycleBatch(sb.batch)
	}
}

// muxJob is one worker's job-scoped Transport over the shared node.
type muxJob struct {
	node  *MeshNode
	job   uint32
	width int
	in    []chan jobFrame // in[src]; nil at index == node.worker
	done  chan struct{}   // closed when the job fails or closes
	err   error           // cause; written before done closes

	// Exchange state, touched only by the job's exchanging goroutine.
	radix int         // this exchange's radix, 2 or k
	enc   []byte      // this step's outgoing blocks, encoded
	held  []wireBlock // blocks held between rounds
	send  []wireBlock // one bundle's blocks
}

var _ Transport = (*muxJob)(nil)

// OpenJob registers a job on this node and returns the worker's Transport
// for it. Ids only go up (see admit), and every node of the mesh must open
// the job under the same id and width.
func (n *MeshNode) OpenJob(job uint32, width int) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return nil, fmt.Errorf("transport: worker %d mesh node failed: %w", n.worker, n.failed)
	}
	if err := admit(&n.next, job, width); err != nil {
		return nil, err
	}
	j := &muxJob{
		node:  n,
		job:   job,
		width: width,
		in:    make([]chan jobFrame, n.k),
		done:  make(chan struct{}),
		radix: n.k,
	}
	if n.radix != 0 {
		j.radix = n.radix
	}
	for peer := 0; peer < n.k; peer++ {
		if peer == n.worker {
			continue
		}
		j.in[peer] = make(chan jobFrame, jobFrameBuffer)
	}
	n.jobs[job] = j
	if !n.started {
		n.started = true
		for peer := range n.conns {
			if peer == n.worker {
				continue
			}
			n.readers.Add(1)
			go func() {
				defer n.readers.Done()
				n.readLoop(peer)
			}()
		}
	}
	return j, nil
}

// Close tears the node down: every open job fails with ErrClosed, the
// connections close (failing every peer's node that has a job open) and
// the demux readers are waited out. Idempotent.
func (n *MeshNode) Close() error {
	n.fail(ErrClosed)
	n.readers.Wait()
	return nil
}

// failJob closes a job with the given cause, releasing its blocked
// exchanges. Idempotent; the node keeps serving other jobs.
func (n *MeshNode) failJob(j *muxJob, cause error) {
	n.mu.Lock()
	if _, open := n.jobs[j.job]; !open {
		n.mu.Unlock()
		return
	}
	delete(n.jobs, j.job)
	j.err = cause
	close(j.done)
	n.mu.Unlock()
	j.drainInboxes()
}

// markFailed records cause as the node's failure cause if none is set
// yet, without tearing anything down: new jobs are rejected and a later
// fail — whatever triggered it — reports this cause. The deployment's
// Close uses it to pre-mark every node before any connection goes down.
func (n *MeshNode) markFailed(cause error) {
	n.mu.Lock()
	if n.failed == nil {
		n.failed = cause
	}
	n.mu.Unlock()
}

// fail kills the whole node: every open job fails and the connections
// close. Idempotent; the node's first recorded cause wins over the
// caller's.
func (n *MeshNode) fail(cause error) {
	n.mu.Lock()
	if n.tornDown {
		n.mu.Unlock()
		return
	}
	n.tornDown = true
	if n.failed == nil {
		n.failed = cause
	}
	cause = n.failed
	jobs := make([]*muxJob, 0, len(n.jobs))
	for _, j := range n.jobs {
		jobs = append(jobs, j)
	}
	n.mu.Unlock()
	for _, j := range jobs {
		n.failJob(j, cause)
	}
	for _, c := range n.conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// readLoop is the demux for one peer connection: it reads bundles and
// routes them to the owning job's inbox until the connection ends, which
// kills the node — the peer left (an end or a reset of the stream between
// bundles, reported as ErrClosed: a failure elsewhere caused it), or
// truncated or corrupted a bundle, or the socket failed.
func (n *MeshNode) readLoop(peer int) {
	br := bufio.NewReaderSize(n.conns[peer], 1<<16)
	var s bundleScratch // per-connection read scratch, reused across bundles
	for {
		b, err := readBundle(br, n.k, peer, n.worker, &s)
		if err == io.EOF || errors.Is(err, syscall.ECONNRESET) {
			n.fail(fmt.Errorf("transport: worker %d closed its connection to worker %d: %w", peer, n.worker, ErrClosed))
			return
		}
		if err == nil {
			err = n.route(peer, b, &s)
		}
		if err != nil {
			n.fail(fmt.Errorf("transport: demux at worker %d from %d: %w", n.worker, peer, err))
			return
		}
	}
}

// route hands one checked bundle to its job: the blocks addressed to this
// worker are decoded, and the relayed ones take the read buffer with them.
// An error kills the node.
func (n *MeshNode) route(peer int, b bundle, s *bundleScratch) error {
	n.mu.Lock()
	j, open := n.jobs[b.job]
	closed := uint64(b.job) < n.next
	n.mu.Unlock()
	if !open {
		if closed {
			return nil // straggler bundle of a closed job: drop
		}
		return fmt.Errorf("worker %d received a bundle for unknown job %d from worker %d (cross-job corruption)",
			n.worker, b.job, peer)
	}
	if b.width != j.width {
		n.failJob(j, fmt.Errorf("transport: job %d is width %d, bundle from worker %d has width %d",
			b.job, j.width, peer, b.width))
		return nil
	}
	f := jobFrame{step: b.step, round: b.round, flags: b.flags}
	for _, blk := range b.blocks {
		if blk.dst != n.worker {
			f.relay = append(f.relay, blk)
			s.body = nil // the relayed blocks keep the read buffer
			continue
		}
		f.in = append(f.in, srcBatch{blk.src, decodeBlock(blk.raw, j.width)})
	}
	select {
	case j.in[peer] <- f:
	default:
		f.recycle()
		n.failJob(j, fmt.Errorf("transport: job %d inbox from worker %d overflowed (step skew)", b.job, peer))
	}
	return nil
}

// send writes one bundle to peer under the per-peer write lock (keeping
// interleaved jobs' bundles atomic on the shared stream) and charges its
// bundle to the node's wire counters.
func (n *MeshNode) send(peer int, j *muxJob, step, round int, flags byte, blocks []wireBlock) error {
	n.wmu[peer].Lock()
	defer n.wmu[peer].Unlock()
	if n.bufw[peer] == nil {
		n.bufw[peer] = bufio.NewWriterSize(n.conns[peer], 1<<16)
	}
	wrote, err := writeBundle(n.bufw[peer], j.job, step, round, flags, j.width, blocks)
	n.wire.bytes.Add(int64(wrote))
	if err != nil {
		return n.failure(err)
	}
	rows := 0
	for _, b := range blocks {
		rows += blockCount(b.raw)
	}
	n.wire.bundles.Add(1)
	n.wire.blocks.Add(int64(len(blocks)))
	n.wire.rows.Add(int64(rows))
	return nil
}

// failure maps an error the node's own teardown can induce — a blocked
// write's "use of closed network connection" — to the cause that teardown
// recorded: fail and the deployment's Close record it before closing any
// connection, so it, not the induced error, is the real story. A healthy
// node's err passes through.
func (n *MeshNode) failure(err error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return n.failed
	}
	return err
}

// failure returns the job's recorded cause (safe after done closed).
func (j *muxJob) failure() error { return cmp.Or(j.err, ErrClosed) }

// drainInboxes recycles queued frames of a closed job (best-effort: a
// frame routed concurrently with the close is stranded to the GC, which
// the pool tolerates).
func (j *muxJob) drainInboxes() {
	for _, ch := range j.in {
		for drained := false; !drained; {
			select {
			case f := <-ch: // never ready on the nil self slot
				f.recycle()
			default:
				drained = true
			}
		}
	}
}

// Exchange implements Transport for one job over the shared mesh. Every
// outgoing batch is encoded once, into one block, and the blocks move in
// the rounds of this exchange's radix (DESIGN.md §14): radix k is the
// direct exchange, one bundle to and from every peer; radix 2 is Bruck's
// index algorithm, ⌈log₂k⌉ rounds of one bundle each way, relays
// forwarding blocks verbatim. Every bundle carries the OR of the active
// votes and the AND of the small bits its sender has folded in, so after
// the last round every worker holds both over all k, and the AND picks
// the next exchange's radix without a message of its own. A job's first
// exchange runs radix k.
//
// Cancellation is Close() by design — the Transport contract (see
// the bsp run core, which closes the transport when its ctx fires).
func (j *muxJob) Exchange(worker, step int, out []*MessageBatch, active bool) (ExchangeResult, error) {
	n := j.node
	if worker != n.worker {
		return ExchangeResult{}, fmt.Errorf("transport: job %d instance owns worker %d, called as %d",
			j.job, n.worker, worker)
	}
	select {
	case <-j.done:
		return ExchangeResult{}, j.failure()
	default:
	}
	// Reject cross-width batches before anything reaches the wire, so the
	// sender fails as loudly as the receiving demux would.
	for dst, batch := range out {
		if batch != nil && batch.Width != j.width {
			return ExchangeResult{}, fmt.Errorf(
				"transport: job %d is width %d, outgoing batch for worker %d has width %d",
				j.job, j.width, dst, batch.Width)
		}
	}

	res := ExchangeResult{In: make([]*MessageBatch, n.k)}
	if worker < len(out) {
		res.In[worker] = out[worker] // self-delivery without the network
	}
	flags, err := j.encode(worker, out)
	// The blocks are encoded (or abandoned): recycle the outgoing batches.
	// The self slot stays alive — it was handed back in In.
	for peer := 0; peer < n.k && peer < len(out); peer++ {
		if peer != worker {
			RecycleBatch(out[peer])
		}
	}
	if err != nil {
		return ExchangeResult{}, err
	}
	if active {
		flags |= bundleActive
	}
	if err = j.rounds(worker, step, j.radix == 2 && n.k > 2, &flags, res.In); err != nil {
		return ExchangeResult{}, err
	}
	res.AnyActive = flags&bundleActive != 0
	switch {
	case n.radix != 0:
	case flags&bundleSmall != 0 && bruckRounds(n.k) < n.k-1:
		j.radix = 2
	default:
		j.radix = n.k
	}
	// Peer-wait cannot be separated from wire time without extra control
	// round-trips: Wait stays 0 and callers attribute the whole exchange
	// to communication (documented in DESIGN.md).
	return res, nil
}

// encode encodes every non-empty outgoing batch into one block, holds the
// blocks in ascending dst order and returns the sender's small bit.
func (j *muxJob) encode(worker int, out []*MessageBatch) (byte, error) {
	size := 0
	for dst, b := range out {
		if dst != worker && b.Len() > 0 {
			size += blockBytes(b.Len(), b.Width)
		}
	}
	// Grown once up front, so the held slices stay valid while enc fills.
	j.enc, j.held = slices.Grow(j.enc[:0], size), j.held[:0]
	flags := byte(bundleSmall)
	for dst, b := range out {
		if dst == worker || dst >= j.node.k || b.Len() == 0 {
			continue
		}
		at := len(j.enc)
		var err error
		if j.enc, err = appendBlock(j.enc, worker, dst, b); err != nil {
			return 0, fmt.Errorf("transport: job %d block for worker %d: %w", j.job, dst, err)
		}
		if len(j.enc)-at > smallBlockBytes {
			flags = 0
		}
		j.held = append(j.held, wireBlock{src: worker, dst: dst, raw: j.enc[at:len(j.enc):len(j.enc)]})
	}
	return flags, nil
}

// rounds moves the held blocks to their destinations. A round sends one
// bundle per hop, then takes one from each hop back: the direct exchange's
// one round has every hop 1..k−1 and a block goes on the hop equal to its
// offset (dst − worker) mod k; radix-2 round r has the one hop 2^r and a
// block goes if its offset has that bit. A write error is reported only if
// the round's bundles all arrived, so a departed peer is named as such.
func (j *muxJob) rounds(worker, step int, bruck bool, flags *byte, in []*MessageBatch) error {
	n, k := j.node, j.node.k
	rounds, lo, hi := 1, 1, k
	if bruck {
		rounds = bruckRounds(k)
	}
	for round := 0; round < rounds; round++ {
		if bruck {
			lo, hi = 1<<round, 1<<round+1
		}
		var writeErr error
		for hop := lo; hop < hi; hop++ {
			j.send = j.send[:0]
			keep := j.held[:0]
			for _, b := range j.held {
				if off := (b.dst - worker + k) % k; off == hop || bruck && off&hop != 0 {
					j.send = append(j.send, b)
				} else {
					keep = append(keep, b)
				}
			}
			j.held = keep
			slices.SortFunc(j.send, func(a, b wireBlock) int { return cmp.Or(a.dst-b.dst, a.src-b.src) })
			to, out := (worker+hop)%k, *flags
			if bruck {
				out |= bundleBruck
			}
			if err := n.send(to, j, step, round, out, j.send); err != nil && writeErr == nil {
				writeErr = fmt.Errorf("transport: job %d write to %d: %w", j.job, to, err)
			}
		}
		for hop := lo; hop < hi; hop++ {
			if err := j.take((worker-hop+k)%k, step, round, bruck, flags, in); err != nil {
				return err
			}
		}
		if writeErr != nil {
			return writeErr
		}
	}
	return nil
}

// take receives the (step, round) bundle from peer: its blocks for this
// worker land in in, the relayed ones join held, and its flags fold into
// flags.
func (j *muxJob) take(peer, step, round int, bruck bool, flags *byte, in []*MessageBatch) error {
	var f jobFrame
	select {
	case f = <-j.in[peer]:
	case <-j.done:
		return j.failure()
	}
	if f.step != step || f.round != round || (f.flags&bundleBruck != 0) != bruck {
		f.recycle()
		return fmt.Errorf("transport: job %d step skew from %d: got step %d round %d, want step %d round %d",
			j.job, peer, f.step, f.round, step, round)
	}
	// The route rule gives every block exactly one last hop, so no slot
	// is filled twice.
	for _, sb := range f.in {
		in[sb.src] = sb.batch
	}
	j.held = append(j.held, f.relay...)
	*flags |= f.flags & bundleActive
	*flags &^= bundleSmall &^ f.flags
	return nil
}

// NumWorkers implements Transport.
func (j *muxJob) NumWorkers() int { return j.node.k }

// Close implements Transport: it closes this worker's view of the job
// (releasing its blocked Exchange, recycling queued frames); the mesh and
// every other job stay up.
func (j *muxJob) Close() error {
	j.node.failJob(j, ErrClosed)
	return nil
}
