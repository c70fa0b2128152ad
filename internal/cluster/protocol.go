package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"ebv/internal/bsp"
	"ebv/internal/frame"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// Control-plane protocol. Every message is one EBVC frame (package frame)
// with header words type and payload length, so a corrupt or truncated
// frame — a data-plane peer, a connection cut mid-shard — fails at the
// frame layer, not as a gob decode error. The small schema'd messages
// (hello, open, opened, start, failed) are gob-encoded structs off the
// bulk path (a worker's first CC open carries its part's component
// links), and gob lets JobSpec and openMsg grow a field without a wire
// revision. The two bulk payloads never touch gob, whose reflection cost
// more CPU per shard than EBV spends partitioning it: assign is the
// shard, exactly bsp.WriteSubgraph's bytes (they label their own part and
// worker count), and done is
//
//	u32 job | u32 attempt | u32 part | u32 steps | u32 width | u32 rows |
//	rows·width × f64 (little-endian bit patterns)
//
// The coordinator and agents each keep exactly one control connection;
// frames in either direction double as liveness (any frame refreshes the
// peer's last-seen clock, and msgHeartbeat exists purely for that).
const (
	msgHello     = 0x01 // agent → coordinator: registration
	msgAssign    = 0x02 // coordinator → agent: partition ownership; the payload is the shard
	msgOpen      = 0x03 // coordinator → agent: open a job attempt on the roster's mesh
	msgOpened    = 0x04 // agent → coordinator: the attempt is open on this agent's node
	msgStart     = 0x05 // coordinator → agent: every agent has opened; run
	msgDone      = 0x06 // agent → coordinator: attempt finished, values inline
	msgFailed    = 0x07 // agent → coordinator: attempt failed
	msgHeartbeat = 0x08 // agent → coordinator: liveness only
	msgShutdown  = 0x09 // coordinator → agent: clean exit
)

// helloMsg registers an agent. DataAddr is its data-plane listener's
// address as peers dial it: bound for the agent's lifetime, at the host
// it advertises (the coordinator only sees the control conn's remote
// address, which may be NATed or wildcard-bound).
type helloMsg struct {
	DataAddr string
}

// openMsg opens a job attempt on the mesh numbered Mesh, whose workers
// listen at Addrs (indexed by partition): an agent whose node is wired
// for another mesh, or has none, wires one first. RestoreStep >= 0
// instructs it to load its partition's checkpoint for that epoch before
// running; -1 runs fresh. Links is the agent's part of the component-link
// table, sent with its first CC open since its assign and nil on every
// other open: the agent keeps it beside its shard for every CC job, and
// RunWorker checks it.
type openMsg struct {
	Job         int
	Attempt     int
	Spec        JobSpec
	RestoreStep int
	Mesh        int
	Addrs       []string
	Links       *bsp.Links
}

// openedMsg reports the attempt open on the agent's node.
type openedMsg struct {
	Job     int
	Attempt int
}

// startMsg runs an attempt; it is sent once every agent has opened it, so
// no node receives a bundle of a job it has not opened.
type startMsg struct {
	Job     int
	Attempt int
}

// failedMsg reports an attempt failure without killing the agent; the
// agent stays registered and serves the retry.
type failedMsg struct {
	Job     int
	Attempt int
	Err     string
}

// doneHeaderBytes is the done frame's fixed header: six u32 words.
const doneHeaderBytes = 24

// encodeDone lays out one worker's final values (dense rows of its local
// vertices) as a done frame, in one exactly-sized buffer.
func encodeDone(job, attempt, part, steps int, vals *graph.ValueMatrix) []byte {
	buf := make([]byte, 0, doneHeaderBytes+8*len(vals.Data))
	for _, v := range []int{job, attempt, part, steps, vals.Width, vals.Rows()} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return frame.AppendF64s(buf, vals.Data)
}

// decodeDone parses a done frame into its evDone event. The shape is
// checked against the partition's subgraph — part in range, one row per
// local vertex, a legal width, exactly rows·width values in the payload —
// before the value column is allocated.
func decodeDone(payload []byte, subs []*bsp.Subgraph) (event, error) {
	if len(payload) < doneHeaderBytes {
		return event{}, fmt.Errorf("cluster: done frame truncated: %d bytes", len(payload))
	}
	word := func(i int) int { return int(binary.LittleEndian.Uint32(payload[4*i:])) }
	e := event{kind: evDone, job: word(0), attempt: word(1), part: word(2), steps: word(3), width: word(4)}
	rows := word(5)
	if e.part < 0 || e.part >= len(subs) {
		return e, fmt.Errorf("cluster: done frame for partition %d of %d", e.part, len(subs))
	}
	if e.width < 1 || e.width > transport.MaxValueWidth || rows != subs[e.part].NumLocalVertices() {
		return e, fmt.Errorf("cluster: done frame is %d rows × width %d, partition %d has %d local vertices",
			rows, e.width, e.part, subs[e.part].NumLocalVertices())
	}
	if want := 8 * uint64(rows) * uint64(e.width); uint64(len(payload)-doneHeaderBytes) != want {
		return e, fmt.Errorf("cluster: done frame carries %d value bytes, %d rows × width %d need %d",
			len(payload)-doneHeaderBytes, rows, e.width, want)
	}
	e.values, _, _ = frame.TakeF64s(payload[doneHeaderBytes:], rows*e.width) // length just checked
	return e, nil
}

// writeMsg gob-encodes payload and sends it as one control frame.
func writeMsg(mu *sync.Mutex, w io.Writer, typ uint8, payload any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("cluster: encode payload: %w", err)
	}
	return writeFrame(mu, w, typ, buf.Bytes())
}

// controlFrame is EBVC v2: hello, open, opened and start carry new payloads
// under v1's type codes, so a v1 peer fails its first frame by version.
var controlFrame = frame.Format{Name: "EBVC", Version: 2, Words: 2}

// maxControlPayload is of the order of the largest shard.
const maxControlPayload = 1 << 30

// writeFrame sends payload bytes (nil for the bodiless heartbeat and
// shutdown) as one control frame: header, payload and checksum go out as
// one vectored write (one writev on TCP), so a shard is never copied into
// a second buffer. mu serializes writers per connection.
func writeFrame(mu *sync.Mutex, w io.Writer, typ uint8, data []byte) error {
	if len(data) > maxControlPayload {
		return fmt.Errorf("cluster: control payload %d bytes exceeds cap %d", len(data), maxControlPayload)
	}
	head := controlFrame.Begin(0, int(typ), len(data))
	sum := binary.LittleEndian.AppendUint32(nil, frame.Checksum(frame.Checksum(0, head), data))
	mu.Lock()
	defer mu.Unlock()
	_, err := (&net.Buffers{head, data, sum}).WriteTo(w)
	return err
}

// readFrame reads and verifies one control frame. The payload is the
// caller's; it grows with the bytes that arrive (frame.ReadBounded), so a
// corrupt length word costs no more memory than what follows it.
func readFrame(r io.Reader) (typ uint8, payload []byte, err error) {
	fr, word, err := controlFrame.NewReader(r)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: control frame: %w", err)
	}
	if word[0] > math.MaxUint8 || word[1] > maxControlPayload {
		return 0, nil, fmt.Errorf("cluster: control frame of type %d with %d payload bytes", word[0], word[1])
	}
	if payload, err = frame.ReadBounded(fr, int(word[1])); err == nil {
		err = fr.Verify()
	}
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: control payload (type %d, %d bytes): %w", word[0], word[1], err)
	}
	return uint8(word[0]), payload, nil
}

// decodeMsg decodes a gob control-frame payload into out.
func decodeMsg(payload []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(out)
}
