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
// (hello, prepare, prepared, start, failed) are gob-encoded structs: a
// few dozen bytes each, off the bulk path, and gob lets JobSpec grow a
// field without a wire revision. The two bulk payloads never touch gob,
// whose reflection cost more CPU per shard than EBV spends partitioning
// it: assign is the shard, exactly bsp.WriteSubgraph's bytes (they label
// their own part and worker count), and done is
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
	msgPrepare   = 0x03 // coordinator → agent: bind a data listener for a job attempt
	msgPrepared  = 0x04 // agent → coordinator: data listener address
	msgStart     = 0x05 // coordinator → agent: full peer address list; run
	msgDone      = 0x06 // agent → coordinator: attempt finished, values inline
	msgFailed    = 0x07 // agent → coordinator: attempt failed
	msgHeartbeat = 0x08 // agent → coordinator: liveness only
	msgShutdown  = 0x09 // coordinator → agent: clean exit
)

// helloMsg registers an agent. Host is the address workers advertise to
// peers for the data plane (the coordinator only sees the control conn's
// remote address, which may be NATed or wildcard-bound).
type helloMsg struct {
	Host string
}

// prepareMsg opens a job attempt: the agent must bind a fresh data-plane
// listener and reply prepared. RestoreStep >= 0 instructs it to load its
// partition's checkpoint for that epoch before running; -1 runs fresh.
type prepareMsg struct {
	Job         int
	Attempt     int
	Spec        JobSpec
	RestoreStep int
}

// preparedMsg reports the agent's bound data-plane address for one
// attempt. Part is echoed so the coordinator can place the address even
// if the assignment raced a failover.
type preparedMsg struct {
	Job      int
	Attempt  int
	Part     int
	DataAddr string
}

// startMsg broadcasts the complete data-plane address list (indexed by
// partition); receipt means every peer is listening, so mesh wiring can
// begin.
type startMsg struct {
	Job     int
	Attempt int
	Addrs   []string
}

// failedMsg reports an attempt failure without killing the agent; the
// agent stays registered and serves the retry.
type failedMsg struct {
	Job     int
	Attempt int
	Part    int
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

var controlFrame = frame.Format{Name: "EBVC", Version: 1, Words: 2}

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
	if payload, err = frame.ReadBounded(fr, word[1]); err == nil {
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
