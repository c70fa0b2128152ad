package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// On-disk checkpoint codec. One file holds one worker's bsp.Checkpoint for
// one (job, partition, epoch) triple, versioned and CRC-checked so restore
// never trusts a torn or stale file:
//
//	u32 magic "EBVK" | u32 version | u32 job | u32 part | u32 workers |
//	u32 width | u32 step | u32 stateWidth | u32 stateRows | u32 inboxRows |
//	stateRows·stateWidth × f64 | inboxRows × u32 ids |
//	inboxRows·width × f64 | u32 crc
//
// (little-endian; crc is CRC-32C over everything before it). Files are
// written to a temp name and renamed into place, so a worker killed
// mid-write leaves either the previous complete epoch or nothing — never
// a file that decodes.
const (
	checkpointMagic   = 0x4542564B // "EBVK"
	checkpointVersion = 1

	checkpointHeaderWords = 10
	checkpointHeaderBytes = checkpointHeaderWords * 4

	// maxCheckpointRows caps the decoded state/inbox row counts, mirroring
	// the transport's wire caps: a corrupt length field fails loudly
	// instead of attempting a huge allocation.
	maxCheckpointRows = 1 << 28
)

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// CheckpointMeta identifies whose execution a checkpoint file belongs to.
type CheckpointMeta struct {
	Job     int
	Part    int
	Workers int
	// Width is the run's message width (the inbox row width; the program
	// state carries its own width).
	Width int
}

// EncodeCheckpoint serializes cp with its identifying metadata.
func EncodeCheckpoint(meta CheckpointMeta, cp *bsp.Checkpoint) ([]byte, error) {
	if cp == nil || cp.State == nil {
		return nil, fmt.Errorf("cluster: nil checkpoint")
	}
	if cp.Step < 1 {
		return nil, fmt.Errorf("cluster: checkpoint step %d invalid", cp.Step)
	}
	if err := cp.CheckInbox(meta.Width); err != nil {
		return nil, err
	}
	stateRows := cp.State.Rows()
	if err := cp.State.CheckShape(stateRows); err != nil {
		return nil, err
	}
	inboxRows := len(cp.InboxIDs)
	size := checkpointHeaderBytes + 8*len(cp.State.Data) + 4*inboxRows + 8*len(cp.InboxVals) + 4
	buf := make([]byte, 0, size)
	for _, v := range [checkpointHeaderWords]int{
		checkpointMagic, checkpointVersion, meta.Job, meta.Part, meta.Workers,
		meta.Width, cp.Step, cp.State.Width, stateRows, inboxRows,
	} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = transport.AppendF64s(buf, cp.State.Data)
	buf = transport.AppendU32s(buf, cp.InboxIDs)
	buf = transport.AppendF64s(buf, cp.InboxVals)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, checkpointCRC))
	return buf, nil
}

// DecodeCheckpoint parses and fully validates an encoded checkpoint:
// magic, version, CRC, exact length and internal shape. Truncated,
// corrupt or trailing-junk files all fail loudly.
func DecodeCheckpoint(data []byte) (CheckpointMeta, *bsp.Checkpoint, error) {
	var meta CheckpointMeta
	if len(data) < checkpointHeaderBytes+4 {
		return meta, nil, fmt.Errorf("cluster: checkpoint truncated: %d bytes", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data[0:4]); magic != checkpointMagic {
		return meta, nil, fmt.Errorf("cluster: bad checkpoint magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != checkpointVersion {
		return meta, nil, fmt.Errorf("cluster: checkpoint version %d, this build reads %d", v, checkpointVersion)
	}
	word := func(i int) int {
		return int(binary.LittleEndian.Uint32(data[4*i : 4*i+4]))
	}
	meta.Job = word(2)
	meta.Part = word(3)
	meta.Workers = word(4)
	meta.Width = word(5)
	step := word(6)
	stateWidth := word(7)
	stateRows := word(8)
	inboxRows := word(9)
	if stateWidth < 1 || stateRows < 0 || stateRows > maxCheckpointRows ||
		inboxRows < 0 || inboxRows > maxCheckpointRows ||
		meta.Width < 1 || step < 1 {
		return meta, nil, fmt.Errorf("cluster: checkpoint header out of range (step %d, state %dx%d, inbox %d rows, width %d)",
			step, stateRows, stateWidth, inboxRows, meta.Width)
	}
	want := checkpointHeaderBytes + 8*stateRows*stateWidth + 4*inboxRows + 8*inboxRows*meta.Width + 4
	if len(data) != want {
		return meta, nil, fmt.Errorf("cluster: checkpoint is %d bytes, header describes %d (truncated or corrupt)",
			len(data), want)
	}
	crc := crc32.Checksum(data[:len(data)-4], checkpointCRC)
	if got := binary.LittleEndian.Uint32(data[len(data)-4:]); got != crc {
		return meta, nil, fmt.Errorf("cluster: checkpoint checksum mismatch: got %#x, want %#x", got, crc)
	}

	// len(data) matches the header exactly, so no Take can come up short.
	cp := &bsp.Checkpoint{Step: step, State: &graph.ValueMatrix{Width: stateWidth}}
	body := data[checkpointHeaderBytes : len(data)-4]
	cp.State.Data, body, _ = transport.TakeF64s(body, stateRows*stateWidth)
	cp.InboxIDs, body, _ = transport.TakeU32s[graph.VertexID](body, inboxRows)
	cp.InboxVals, _, _ = transport.TakeF64s(body, inboxRows*meta.Width)
	return meta, cp, nil
}

// CheckpointPath names the checkpoint file of one (job, part, epoch).
func CheckpointPath(dir string, job, part, step int) string {
	return filepath.Join(dir, checkpointName(job, part, step))
}

func checkpointName(job, part, step int) string {
	return fmt.Sprintf("ebv-j%d-p%d-s%d.ckpt", job, part, step)
}

// parseCheckpointName inverts checkpointName; ok is false for foreign
// files.
func parseCheckpointName(name string) (job, part, step int, ok bool) {
	if _, err := fmt.Sscanf(name, "ebv-j%d-p%d-s%d.ckpt", &job, &part, &step); err != nil {
		return 0, 0, 0, false
	}
	return job, part, step, name == checkpointName(job, part, step)
}

// WriteCheckpointFile atomically writes cp's epoch file under dir
// (creating dir if needed): encode, write to a temp name, rename. A crash
// at any point leaves no partially written file at the final name.
func WriteCheckpointFile(dir string, meta CheckpointMeta, cp *bsp.Checkpoint) error {
	data, err := EncodeCheckpoint(meta, cp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	name := checkpointName(meta.Job, meta.Part, cp.Step)
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("cluster: checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cluster: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cluster: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cluster: publish checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile reads and validates one checkpoint file.
func ReadCheckpointFile(path string) (CheckpointMeta, *bsp.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CheckpointMeta{}, nil, err
	}
	meta, cp, err := DecodeCheckpoint(data)
	if err != nil {
		return meta, nil, fmt.Errorf("%s: %w", path, err)
	}
	return meta, cp, nil
}

// SelectRestoreEpoch scans dir for job's checkpoint files and returns the
// latest epoch at which EVERY partition 0..workers-1 has a file that
// decodes cleanly (CRC, shape and metadata all verified). An epoch missing
// any partition — a worker died before its rename landed — is skipped in
// favor of an earlier complete one; epochs of other jobs are ignored. ok
// is false when no complete epoch exists.
func SelectRestoreEpoch(dir string, job, workers int) (step int, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("cluster: scan checkpoints: %w", err)
	}
	byStep := make(map[int]map[int]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		j, p, s, nameOK := parseCheckpointName(e.Name())
		if !nameOK || j != job || p < 0 || p >= workers {
			continue
		}
		if byStep[s] == nil {
			byStep[s] = make(map[int]bool)
		}
		byStep[s][p] = true
	}
	steps := make([]int, 0, len(byStep))
	for s := range byStep {
		if len(byStep[s]) == workers {
			steps = append(steps, s)
		}
	}
	// Latest complete-looking epoch first; fall back past any epoch with a
	// file that does not validate. The scan is bounded by the candidate
	// list, so it needs no cancellation hook.
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	for _, best := range steps {
		valid := true
		for p := 0; p < workers; p++ {
			meta, cp, err := ReadCheckpointFile(CheckpointPath(dir, job, p, best))
			if err != nil || meta.Job != job || meta.Part != p || meta.Workers != workers || cp.Step != best {
				valid = false
				break
			}
		}
		if valid {
			return best, true, nil
		}
	}
	return 0, false, nil
}
