package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ebv/internal/bsp"
	"ebv/internal/frame"
	"ebv/internal/graph"
)

// On-disk checkpoint codec. One file holds one worker's bsp.Checkpoint for
// one (job, partition, epoch) triple as an EBVK frame (package frame), so
// restore never trusts a torn or stale file:
//
//	words: job | part | workers | width | step | stateWidth | stateRows | inboxRows
//	body:  stateRows·stateWidth × f64 | inboxRows × u32 ids | inboxRows·width × f64
//
// Files are written to a temp name and renamed into place, so a worker
// killed mid-write leaves either the previous complete epoch or nothing —
// never a file that decodes.
const (
	checkpointVersion     = 1
	checkpointHeaderBytes = 4 * (2 + 8) // magic, version, the eight words
)

var checkpointFrame = frame.Format{Name: "EBVK", Version: checkpointVersion, Words: 8}

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
	buf := checkpointFrame.Begin(8*len(cp.State.Data)+4*inboxRows+8*len(cp.InboxVals),
		meta.Job, meta.Part, meta.Workers, meta.Width, cp.Step, cp.State.Width, stateRows, inboxRows)
	buf = frame.AppendF64s(buf, cp.State.Data)
	buf = frame.AppendU32s(buf, cp.InboxIDs)
	buf = frame.AppendF64s(buf, cp.InboxVals)
	return frame.Seal(buf), nil
}

// DecodeCheckpoint parses and fully validates an encoded checkpoint:
// magic, version, CRC, exact length and internal shape. Truncated,
// corrupt or trailing-junk files all fail loudly.
func DecodeCheckpoint(data []byte) (CheckpointMeta, *bsp.Checkpoint, error) {
	word, body, err := checkpointFrame.Open(data)
	if err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("cluster: checkpoint: %w", err)
	}
	meta := CheckpointMeta{Job: word[0], Part: word[1], Workers: word[2], Width: word[3]}
	step, stateWidth, stateRows, inboxRows := word[4], word[5], word[6], word[7]
	// Each column is bounded by the body before the products are formed,
	// so no header can overflow the length the body is checked against.
	if stateWidth < 1 || meta.Width < 1 || step < 1 ||
		stateRows > len(body)/8/stateWidth || inboxRows > len(body)/(4+8*meta.Width) {
		return meta, nil, fmt.Errorf("cluster: checkpoint header out of range (step %d, state %dx%d, inbox %d rows, width %d)",
			step, stateRows, stateWidth, inboxRows, meta.Width)
	}
	if want := 8*stateRows*stateWidth + (4+8*meta.Width)*inboxRows; len(body) != want {
		return meta, nil, fmt.Errorf("cluster: checkpoint body is %d bytes, header describes %d (truncated or corrupt)",
			len(body), want)
	}

	// The body matches the header exactly, so no Take can come up short.
	cp := &bsp.Checkpoint{Step: step, State: &graph.ValueMatrix{Width: stateWidth}}
	cp.State.Data, body, _ = frame.TakeF64s(body, stateRows*stateWidth)
	cp.InboxIDs, body, _ = frame.TakeU32s[graph.VertexID](body, inboxRows)
	cp.InboxVals, _, _ = frame.TakeF64s(body, inboxRows*meta.Width)
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
