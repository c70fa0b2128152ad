package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// TCPMeshDeployment is the TCP Deployment: a full loopback mesh of k
// MeshNodes wired once and shared by every job. It is the in-process form
// of the one TCP data plane — a cluster agent (cmd/ebv-worker) holds a
// single MeshNode of the same kind per process.
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
	listeners := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range listeners[:i] {
				_ = ln.Close()
			}
			return nil, fmt.Errorf("transport: listen worker %d: %w", i, err)
		}
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
			n, err := WireMeshNode(wctx, i, addrs, listeners[i], 0)
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

// WireBytes reports the total frame bytes (headers and columns) this
// deployment's nodes have written to their peers since construction — the
// wire-volume axis EXPERIMENTS.md and ebv-bench track across codec
// changes. Self-delivery never touches the wire and is not counted.
func (d *TCPMeshDeployment) WireBytes() int64 {
	var total int64
	for _, n := range d.nodes {
		total += n.wire.Load()
	}
	return total
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

// jobFrameBuffer bounds each (job, src) inbox. The BSP lock-step invariant
// keeps at most 2 frames outstanding per (job, src) — a worker can run at
// most one step ahead of the slowest peer that acknowledged it — so a full
// inbox means protocol violation, and the demux fails the job rather than
// head-of-line-block every other job on the connection.
const jobFrameBuffer = 4

// MeshNode is one worker's endpoint of a TCP mesh (see WireMeshNode): the
// connections to its k-1 peers, shared by every job opened on the node.
// Many jobs multiplex over the same connections, so every frame is tagged
// with its job id and a per-connection demux goroutine routes incoming
// frames to the owning job's inbox. Interleaved jobs' batches therefore
// never cross: a frame for job j is only ever delivered to job j's
// Exchange, a frame whose width disagrees with the job's fails that job
// loudly, and a frame for a job the node has never opened kills the node
// (cross-job corruption is a protocol violation, not noise).
//
// Wire format v4 ("EBV4") is the only frame format. Both columns are
// compressed and the frame is sealed with a CRC-32C (see wirecodec.go for
// the column codecs); layout, little endian:
//
//	u32 magic | u32 job | u32 step | u8 active | u8 flags | u32 width |
//	u32 count | u32 idBytes | u32 valBytes | u32 crc |
//	idBytes  × zigzag-delta uvarint vertex ids
//	valBytes × packed values (or raw f64 when packing would expand)
//
// The CRC covers every header field after the magic plus both columns, so
// any corrupted frame — including any single bit flip — is rejected
// loudly instead of decoding to garbage.
//
// The demux readers start with the node's first job. Nodes of a
// multi-process mesh finish wiring at different moments, so a fast peer's
// first frame can arrive before this process has opened the job; it waits
// in the socket buffer instead of being read as a frame for an unknown
// job.
type MeshNode struct {
	worker  int
	k       int
	conns   []net.Conn // conns[peer]; nil at index == worker
	bufw    []*bufio.Writer
	wmu     []sync.Mutex // guards bufw[peer], enc[peer] and frame atomicity on the wire
	enc     []*v4Scratch // per-peer encode scratch; lazily built under wmu[peer]
	wire    atomic.Int64 // frame bytes written to peers
	readers sync.WaitGroup

	mu       sync.Mutex
	jobs     map[uint32]*muxJob
	retired  map[uint32]struct{}
	started  bool   // demux readers running
	gone     []bool // gone[peer]: peer closed its connection between frames (see peerGone)
	failed   error  // node death (conn error, corrupt or cross-job frame, Close); nil while healthy
	tornDown bool   // fail already ran (jobs failed, connections closed)
}

func newMeshNode(worker int, conns []net.Conn) *MeshNode {
	k := len(conns)
	return &MeshNode{
		worker:  worker,
		k:       k,
		conns:   conns,
		bufw:    make([]*bufio.Writer, k),
		wmu:     make([]sync.Mutex, k),
		enc:     make([]*v4Scratch, k),
		jobs:    make(map[uint32]*muxJob),
		retired: make(map[uint32]struct{}),
		gone:    make([]bool, k),
	}
}

// jobFrame is one decoded frame queued for a job's Exchange.
type jobFrame struct {
	step   int
	active bool
	batch  *MessageBatch
}

// muxJob is one worker's job-scoped Transport over the shared node.
type muxJob struct {
	node  *MeshNode
	job   uint32
	width int
	in    []chan jobFrame // in[src]; nil at index == node.worker; closed once src is gone
	done  chan struct{}   // closed when the job fails or closes
	err   error           // cause; written before done closes
}

var _ Transport = (*muxJob)(nil)

// OpenJob registers a job on this node and returns the worker's Transport
// for it. The id must be unique for the lifetime of the node, and every
// node of the mesh must open the job under the same id and width.
func (n *MeshNode) OpenJob(job uint32, width int) (Transport, error) {
	if width < 1 || width > MaxValueWidth {
		return nil, fmt.Errorf("transport: job %d width %d out of range [1,%d]", job, width, MaxValueWidth)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return nil, fmt.Errorf("transport: worker %d mesh node failed: %w", n.worker, n.failed)
	}
	if _, open := n.jobs[job]; open {
		return nil, fmt.Errorf("transport: job %d already open", job)
	}
	if _, was := n.retired[job]; was {
		return nil, fmt.Errorf("transport: job %d already served (ids are single-use)", job)
	}
	j := &muxJob{
		node:  n,
		job:   job,
		width: width,
		in:    make([]chan jobFrame, n.k),
		done:  make(chan struct{}),
	}
	for peer := 0; peer < n.k; peer++ {
		if peer == n.worker {
			continue
		}
		j.in[peer] = make(chan jobFrame, jobFrameBuffer)
		if n.gone[peer] {
			close(j.in[peer])
		}
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
// connections close (each peer sees this worker leave) and the demux
// readers are waited out. Idempotent.
func (n *MeshNode) Close() error {
	n.fail(ErrClosed)
	n.readers.Wait()
	return nil
}

// failJob retires a job with the given cause, releasing its blocked
// exchanges. Idempotent; the node keeps serving other jobs.
func (n *MeshNode) failJob(j *muxJob, cause error) {
	n.mu.Lock()
	if _, open := n.jobs[j.job]; !open {
		n.mu.Unlock()
		return
	}
	delete(n.jobs, j.job)
	n.retired[j.job] = struct{}{}
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

// peerGone records that peer closed its connection between frames — what
// a worker does after its last superstep — and closes every job's inbox
// from it. A peer that finishes first must not fail a slower one still
// collecting the final step: frames already queued are delivered, and
// only an Exchange that needs a further frame from peer fails.
func (n *MeshNode) peerGone(peer int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gone[peer] = true
	for _, j := range n.jobs {
		close(j.in[peer]) // readLoop(peer), the only sender, is the caller
	}
}

// readLoop is the demux for one peer connection: it decodes frames and
// routes them to the owning job's inbox until the connection ends. A
// clean end between frames is the peer leaving (peerGone); anything else
// — truncation mid-frame, a corrupt frame, a socket error — kills the
// node.
func (n *MeshNode) readLoop(peer int) {
	br := bufio.NewReaderSize(n.conns[peer], 1<<16)
	var dec v4Scratch // per-connection decode scratch, reused across frames
	for {
		job, step, active, batch, err := readJobFrameV4(br, &dec)
		if err == io.EOF {
			n.peerGone(peer)
			return
		}
		if err != nil {
			n.fail(fmt.Errorf("transport: demux at worker %d from %d: %w", n.worker, peer, err))
			return
		}
		if !n.route(peer, job, jobFrame{step: step, active: active, batch: batch}) {
			return
		}
	}
}

// route delivers one decoded frame; false stops the read loop (node dead).
func (n *MeshNode) route(peer int, job uint32, f jobFrame) bool {
	n.mu.Lock()
	j, open := n.jobs[job]
	if !open {
		_, wasServed := n.retired[job]
		n.mu.Unlock()
		RecycleBatch(f.batch)
		if wasServed {
			return true // straggler frame of a finished job: drop
		}
		n.fail(fmt.Errorf("transport: worker %d received a frame for unknown job %d from worker %d (cross-job corruption)",
			n.worker, job, peer))
		return false
	}
	n.mu.Unlock()
	if f.batch != nil && f.batch.Width != j.width {
		got := f.batch.Width
		RecycleBatch(f.batch)
		n.failJob(j, fmt.Errorf("transport: job %d is width %d, frame from worker %d has width %d",
			job, j.width, peer, got))
		return true
	}
	select {
	case j.in[peer] <- f:
	default:
		RecycleBatch(f.batch)
		n.failJob(j, fmt.Errorf("transport: job %d inbox from worker %d overflowed (step skew)", job, peer))
	}
	return true
}

// writeFrame writes one job frame to peer under the per-peer write lock
// (keeping interleaved jobs' frames atomic on the shared stream) and
// charges the frame's bytes to the node's wire counter.
func (n *MeshNode) writeFrame(peer int, job uint32, step int, active bool, batch *MessageBatch) error {
	n.wmu[peer].Lock()
	defer n.wmu[peer].Unlock()
	if n.bufw[peer] == nil {
		n.bufw[peer] = bufio.NewWriterSize(n.conns[peer], 1<<16)
		n.enc[peer] = new(v4Scratch)
	}
	wrote, err := writeJobFrameV4(n.bufw[peer], job, step, active, batch, n.enc[peer])
	n.wire.Add(int64(wrote))
	if err != nil {
		return n.failure(err)
	}
	return nil
}

// failure maps an error the node's own teardown can induce — a blocked
// write's "use of closed network connection", a peer's inbox closing — to
// the cause that teardown recorded: fail and the deployment's Close record
// it before closing any connection, so it, not the induced error, is the
// real story. A healthy node's err passes through.
func (n *MeshNode) failure(err error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return n.failed
	}
	return err
}

// failure returns the job's recorded cause (safe after done closed).
func (j *muxJob) failure() error {
	if j.err != nil {
		return j.err
	}
	return ErrClosed
}

// drainInboxes recycles queued frames of a retired job (best-effort: a
// frame routed concurrently with retirement is stranded to the GC, which
// the pool tolerates).
func (j *muxJob) drainInboxes() {
	for _, ch := range j.in {
		if ch == nil {
			continue
		}
		for drained := false; !drained; {
			select {
			case f, ok := <-ch:
				RecycleBatch(f.batch)
				drained = !ok
			default:
				drained = true
			}
		}
	}
}

// Exchange implements Transport for one job over the shared mesh.
// Cancellation is Close() by design — the Transport contract (see
// the bsp run core, which closes the transport when its ctx fires).
//
//ebv:nolint ctxflow Transport.Exchange cancels via Close, not a context parameter
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

	res := ExchangeResult{In: make([]*MessageBatch, n.k), AnyActive: active}
	if worker < len(out) {
		res.In[worker] = out[worker] // self-delivery without the network
	}

	// Write one tagged frame to every peer concurrently; the per-peer lock
	// keeps frames of interleaved jobs atomic on the shared stream.
	var wg sync.WaitGroup
	errCh := make(chan error, n.k)
	for peer := 0; peer < n.k; peer++ {
		if peer == worker {
			continue
		}
		var batch *MessageBatch
		if peer < len(out) {
			batch = out[peer]
		}
		wg.Add(1)
		go func(peer int, batch *MessageBatch) {
			defer wg.Done()
			if err := n.writeFrame(peer, j.job, step, active, batch); err != nil {
				errCh <- fmt.Errorf("transport: job %d write to %d: %w", j.job, peer, err)
			}
		}(peer, batch)
	}

	// Receive this job's frame from every peer via the demux inboxes.
	var firstErr error
	for peer := 0; peer < n.k; peer++ {
		if peer == worker {
			continue
		}
		select {
		case f, ok := <-j.in[peer]:
			if !ok {
				if firstErr == nil {
					firstErr = n.failure(fmt.Errorf("transport: job %d: worker %d closed its connection before sending step %d",
						j.job, peer, step))
				}
				continue
			}
			if f.step != step {
				RecycleBatch(f.batch)
				if firstErr == nil {
					firstErr = fmt.Errorf("transport: job %d step skew from %d: got %d want %d",
						j.job, peer, f.step, step)
				}
				continue
			}
			res.In[peer] = f.batch
			res.AnyActive = res.AnyActive || f.active
		case <-j.done:
			if firstErr == nil {
				firstErr = j.failure()
			}
		}
	}
	wg.Wait()
	close(errCh)
	if firstErr == nil {
		for err := range errCh {
			firstErr = err
			break
		}
	}
	// Frames are on the wire (or abandoned): recycle the outgoing batches.
	// The self slot stays alive — it was handed back in In.
	for peer := 0; peer < n.k && peer < len(out); peer++ {
		if peer != worker {
			RecycleBatch(out[peer])
		}
	}
	if firstErr != nil {
		return ExchangeResult{}, firstErr
	}
	// Peer-wait cannot be separated from wire time without extra control
	// round-trips: Wait stays 0 and callers attribute the whole exchange
	// to communication (documented in DESIGN.md).
	return res, nil
}

// NumWorkers implements Transport.
func (j *muxJob) NumWorkers() int { return j.node.k }

// Close implements Transport: it retires this worker's view of the job
// (releasing its blocked Exchange, recycling queued frames); the mesh and
// every other job stay up.
func (j *muxJob) Close() error {
	j.node.failJob(j, ErrClosed)
	return nil
}

const (
	// jobFrameMagicV4 marks a job frame (wire version 4, the only one; see
	// MeshNode). A peer speaking anything else fails its first frame
	// loudly at the magic check.
	jobFrameMagicV4 = 0x45425634 // "EBV4"

	// jobFrameHeaderBytesV4: magic + job + step + active + flags + width +
	// count + idBytes + valBytes + crc.
	jobFrameHeaderBytesV4 = 34

	// maxWireWidth and maxWireMessages bound what a frame header may
	// claim, so a corrupt or hostile peer cannot force a giant
	// allocation. The product bound caps the raw value column at 2 GiB —
	// comfortably inside the u32 byte-length field (2^28 values × 8
	// bytes = 2^31). The writer enforces the same bounds, so an oversized
	// batch fails with a clear local error instead of a corrupt-frame
	// error at the receiver.
	maxWireWidth    = MaxValueWidth
	maxWireMessages = 1 << 28
	maxWireValues   = 1 << 28
)

// v4Scratch is the reusable frame codec scratch: one per peer on the
// write side (guarded by the per-peer write lock), one per demux
// goroutine on the read side, so steady-state frames encode and decode
// without allocating.
type v4Scratch struct {
	ids  []byte // encoded ID column
	vals []byte // encoded value column
	buf  []byte // reader-side payload staging
}

// writeJobFrameV4 encodes one compressed job-tagged frame into bw and
// flushes it, returning the frame's wire size. A nil or empty batch writes
// an empty frame (count 0, no columns).
func writeJobFrameV4(bw *bufio.Writer, job uint32, step int, active bool, batch *MessageBatch, s *v4Scratch) (int, error) {
	width, count := 0, 0
	if batch != nil {
		width, count = batch.Width, batch.Len()
	}
	if count > maxWireMessages || count*width > maxWireValues {
		return 0, fmt.Errorf("batch of %d messages × width %d exceeds the wire cap (%d messages, %d values)",
			count, width, maxWireMessages, maxWireValues)
	}
	var flags byte
	s.ids, s.vals = s.ids[:0], s.vals[:0]
	if count == 0 {
		width = 0 // canonical empty frame
	} else {
		flags |= v4FlagDeltaIDs
		// Sized once from the format's bounds (an id is at most 5 bytes, a
		// packed value 9): a mesh wired per attempt starts every scratch
		// empty, and doubling inside the encoders re-copied each frame.
		s.ids = appendDeltaIDs(slices.Grow(s.ids, 5*count), batch.IDs)
		s.vals = appendPackedVals(slices.Grow(s.vals, 9*count*width), batch.Vals)
		if len(s.vals) < count*width*8 {
			flags |= v4FlagPackedVal
		} else {
			// Packing would expand this column (noisy-mantissa payloads
			// can cost 9 bytes/value): ship it raw and say so in flags.
			s.vals = AppendF64s(s.vals[:0], batch.Vals)
		}
	}
	var header [jobFrameHeaderBytesV4]byte
	binary.LittleEndian.PutUint32(header[0:4], jobFrameMagicV4)
	binary.LittleEndian.PutUint32(header[4:8], job)
	binary.LittleEndian.PutUint32(header[8:12], uint32(step))
	if active {
		header[12] = 1
	}
	header[13] = flags
	binary.LittleEndian.PutUint32(header[14:18], uint32(width))
	binary.LittleEndian.PutUint32(header[18:22], uint32(count))
	binary.LittleEndian.PutUint32(header[22:26], uint32(len(s.ids)))
	binary.LittleEndian.PutUint32(header[26:30], uint32(len(s.vals)))
	crc := crc32.Update(0, castagnoli, header[4:30])
	crc = crc32.Update(crc, castagnoli, s.ids)
	crc = crc32.Update(crc, castagnoli, s.vals)
	binary.LittleEndian.PutUint32(header[30:34], crc)
	if _, err := bw.Write(header[:]); err != nil {
		return 0, err
	}
	if _, err := bw.Write(s.ids); err != nil {
		return 0, err
	}
	if _, err := bw.Write(s.vals); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return jobFrameHeaderBytesV4 + len(s.ids) + len(s.vals), nil
}

// readJobFrameV4 decodes one compressed job-tagged frame. The frame's
// shape is validated against the wire caps before anything is allocated,
// the CRC is verified over header and payload before anything is decoded
// (so any corrupted frame — any single bit flip included — fails here
// loudly), and both columns must decode exactly: truncation, trailing
// bytes, out-of-range ids and invalid value descriptors are all errors.
// A non-empty frame returns a pooled batch owned by the caller.
func readJobFrameV4(br *bufio.Reader, s *v4Scratch) (job uint32, step int, active bool, batch *MessageBatch, err error) {
	var header [jobFrameHeaderBytesV4]byte
	if _, err = io.ReadFull(br, header[:]); err != nil {
		return 0, 0, false, nil, err
	}
	if magic := binary.LittleEndian.Uint32(header[0:4]); magic != jobFrameMagicV4 {
		return 0, 0, false, nil, fmt.Errorf(
			"bad job frame magic %#x, want %#x (peer speaking another wire version?)", magic, jobFrameMagicV4)
	}
	job = binary.LittleEndian.Uint32(header[4:8])
	step = int(binary.LittleEndian.Uint32(header[8:12]))
	active = header[12] == 1
	flags := header[13]
	width := int(binary.LittleEndian.Uint32(header[14:18]))
	count := int(binary.LittleEndian.Uint32(header[18:22]))
	idBytes := int(binary.LittleEndian.Uint32(header[22:26]))
	valBytes := int(binary.LittleEndian.Uint32(header[26:30]))
	wantCRC := binary.LittleEndian.Uint32(header[30:34])

	if flags&^(v4FlagDeltaIDs|v4FlagPackedVal) != 0 {
		return 0, 0, false, nil, fmt.Errorf("v4 frame has unknown flags %#x", flags)
	}
	if count == 0 {
		if flags != 0 || width != 0 || idBytes != 0 || valBytes != 0 {
			return 0, 0, false, nil, fmt.Errorf(
				"empty v4 frame is non-canonical (flags %#x width %d idBytes %d valBytes %d)",
				flags, width, idBytes, valBytes)
		}
	} else {
		if width < 1 || width > maxWireWidth {
			return 0, 0, false, nil, fmt.Errorf("v4 frame width %d out of range [1,%d]", width, maxWireWidth)
		}
		if count < 0 || count > maxWireMessages || count*width > maxWireValues {
			return 0, 0, false, nil, fmt.Errorf("v4 frame of %d messages × width %d exceeds the wire cap", count, width)
		}
		if flags&v4FlagDeltaIDs == 0 {
			return 0, 0, false, nil, fmt.Errorf("v4 frame without delta-encoded ids (flags %#x)", flags)
		}
		if idBytes < count || idBytes > count*5 {
			return 0, 0, false, nil, fmt.Errorf("v4 id column is %d bytes for %d ids (valid range [%d,%d])",
				idBytes, count, count, count*5)
		}
		values := count * width
		if flags&v4FlagPackedVal != 0 {
			if valBytes < values || valBytes > values*9 {
				return 0, 0, false, nil, fmt.Errorf("v4 packed value column is %d bytes for %d values (valid range [%d,%d])",
					valBytes, values, values, values*9)
			}
		} else if valBytes != values*8 {
			return 0, 0, false, nil, fmt.Errorf("v4 raw value column is %d bytes, want %d", valBytes, values*8)
		}
	}

	s.buf = slices.Grow(s.buf[:0], idBytes+valBytes)[:idBytes+valBytes]
	if _, err = io.ReadFull(br, s.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised columns: not a clean end
		}
		return 0, 0, false, nil, err
	}
	crc := crc32.Update(0, castagnoli, header[4:30])
	crc = crc32.Update(crc, castagnoli, s.buf)
	if crc != wantCRC {
		return 0, 0, false, nil, fmt.Errorf("v4 frame CRC mismatch (want %#x, computed %#x): corrupted frame", wantCRC, crc)
	}
	if count == 0 {
		return job, step, active, nil, nil
	}

	b := GetBatch(width)
	b.IDs = slices.Grow(b.IDs, count)[:count]
	b.Vals = slices.Grow(b.Vals, count*width)[:count*width]
	idCol, valCol := s.buf[:idBytes], s.buf[idBytes:]
	if err := decodeDeltaIDs(idCol, b.IDs); err != nil {
		RecycleBatch(b)
		return 0, 0, false, nil, fmt.Errorf("v4 frame: %w", err)
	}
	if flags&v4FlagPackedVal != 0 {
		if err := decodePackedVals(valCol, b.Vals); err != nil {
			RecycleBatch(b)
			return 0, 0, false, nil, fmt.Errorf("v4 frame: %w", err)
		}
	} else {
		DecodeF64s(b.Vals, valCol)
	}
	return job, step, active, b, nil
}
