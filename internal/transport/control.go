package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Control-channel frames: the cluster control plane (coordinator ↔ worker
// agents) speaks its own wire format alongside the data plane's job
// frames ("EBV4"). Control frames are not message batches — they carry
// opaque payloads (registration, shard shipment, job prepare/start,
// heartbeats) whose schema lives one layer up in internal/cluster. This
// codec only guarantees framing integrity:
//
//	u32 magic "EBVC" | u8 type | u32 payloadLen | payload | u32 crc
//
// (little-endian; crc is CRC-32C over type, payloadLen and payload). A
// corrupt or truncated frame — a peer speaking a data-plane format, a cut
// connection mid-shard — fails loudly at the frame layer instead of
// surfacing as a gob decode error deep inside the control plane.
const (
	// controlFrameMagic marks a control-plane frame.
	controlFrameMagic = 0x45425643 // "EBVC"

	controlHeaderBytes  = 9 // magic + type + payloadLen
	controlTrailerBytes = 4 // crc

	// MaxControlPayload caps a control frame's payload. Shard shipments are
	// the big frames; the cap matches the subgraph codec's own vertex cap
	// order of magnitude rather than the small-message common case.
	MaxControlPayload = 1 << 30
)

var controlCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteControlFrame writes one control frame: header, the caller's payload
// and the checksum go out as one vectored write (a single writev on a TCP
// connection), so a shard or a result matrix is never staged into a
// second buffer. Callers serialize writers per connection (one mutex
// each), which is what keeps frames from interleaving.
func WriteControlFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > MaxControlPayload {
		return fmt.Errorf("transport: control payload %d bytes exceeds cap %d", len(payload), MaxControlPayload)
	}
	var header [controlHeaderBytes]byte
	binary.LittleEndian.PutUint32(header[0:4], controlFrameMagic)
	header[4] = typ
	binary.LittleEndian.PutUint32(header[5:9], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(header[4:], controlCRC), controlCRC, payload)
	var trailer [controlTrailerBytes]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	frame := net.Buffers{header[:], payload, trailer[:]}
	_, err := frame.WriteTo(w)
	return err
}

// ReadControlFrame reads one control frame and verifies its checksum. The
// returned payload is freshly allocated and owned by the caller; it is
// read with ReadBounded, so a corrupt length field costs no more memory
// than the bytes that follow it.
func ReadControlFrame(r io.Reader) (typ uint8, payload []byte, err error) {
	var header [controlHeaderBytes]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, nil, err
	}
	if magic := binary.LittleEndian.Uint32(header[0:4]); magic != controlFrameMagic {
		return 0, nil, fmt.Errorf("transport: bad control frame magic %#x (peer speaking a data-plane wire format?)", magic)
	}
	typ = header[4]
	n := binary.LittleEndian.Uint32(header[5:9])
	if n > MaxControlPayload {
		return 0, nil, fmt.Errorf("transport: control payload %d bytes exceeds cap %d", n, MaxControlPayload)
	}
	payload, err = ReadBounded(r, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("transport: control payload: %w", err)
	}
	var trailer [controlTrailerBytes]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: control checksum: %w", err)
	}
	crc := crc32.Checksum(header[4:], controlCRC)
	crc = crc32.Update(crc, controlCRC, payload)
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc {
		return 0, nil, fmt.Errorf("transport: control frame checksum mismatch (type %d, %d bytes): got %#x, want %#x",
			typ, n, got, crc)
	}
	return typ, payload, nil
}
