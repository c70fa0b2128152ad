package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/frame"
	"ebv/internal/graph"
)

// testCheckpoint builds a deterministic checkpoint with stateRows local
// vertices of the given state width and an inbox of the run width.
func testCheckpoint(step, stateRows, stateWidth, inboxRows, width int) *bsp.Checkpoint {
	state := graph.NewValueMatrix(stateRows, stateWidth)
	for i := range state.Data {
		state.Data[i] = float64(i)*0.5 - 3
	}
	cp := &bsp.Checkpoint{
		Step:      step,
		State:     state,
		InboxIDs:  make([]graph.VertexID, inboxRows),
		InboxVals: make([]float64, inboxRows*width),
		Vote:      bsp.Vote{Min: -2.5, Flag: step%2 == 0, Voted: true},
	}
	for i := range cp.InboxIDs {
		cp.InboxIDs[i] = graph.VertexID(7 * i)
	}
	for i := range cp.InboxVals {
		cp.InboxVals[i] = -float64(i) / 3
	}
	return cp
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name                string
		stateWidth, width   int
		stateRows, inboxRow int
	}{
		{"width-1", 1, 1, 50, 17},
		{"width-8", 8, 8, 23, 9},
		{"mixed-widths", 6, 3, 11, 4}, // program snapshot wider than the run width
		{"empty-inbox", 2, 1, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta := CheckpointMeta{Job: 3, Part: 1, Workers: 4, Width: tc.width}
			cp := testCheckpoint(12, tc.stateRows, tc.stateWidth, tc.inboxRow, tc.width)
			data, err := EncodeCheckpoint(meta, cp)
			if err != nil {
				t.Fatal(err)
			}
			gotMeta, got, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if gotMeta != meta {
				t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
			}
			if got.Step != cp.Step || !got.State.EqualValues(cp.State) || got.Vote != cp.Vote ||
				!slices.Equal(got.InboxIDs, cp.InboxIDs) || !slices.Equal(got.InboxVals, cp.InboxVals) {
				t.Fatalf("decoded checkpoint differs from original")
			}
		})
	}
}

// checkpointHeaderBytes is the EBVK header: magic, version, the nine words.
const checkpointHeaderBytes = 4 * (2 + 9)

func TestCheckpointCorruptionRejected(t *testing.T) {
	meta := CheckpointMeta{Job: 1, Part: 0, Workers: 2, Width: 1}
	data, err := EncodeCheckpoint(meta, testCheckpoint(6, 40, 1, 12, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point fails loudly, including cutting the trailer.
	for _, n := range []int{0, 3, checkpointHeaderBytes - 1, checkpointHeaderBytes, len(data) / 2, len(data) - 1} {
		if _, _, err := DecodeCheckpoint(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Trailing junk is not silently ignored.
	if _, _, err := DecodeCheckpoint(append(slices.Clone(data), 0)); err == nil {
		t.Fatal("trailing junk decoded")
	}
	// A single flipped bit anywhere trips the CRC (or an earlier check).
	for _, off := range []int{0, 5, checkpointHeaderBytes + 1, len(data) - 10, len(data) - 1} {
		bad := slices.Clone(data)
		bad[off] ^= 0x40
		if _, _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("bit flip at offset %d decoded", off)
		}
	}
}

// TestCheckpointV1Rejected: a file from before the vote (EBVK version 1:
// eight header words, no vote in the body) fails by name, not by a shape
// or checksum error.
func TestCheckpointV1Rejected(t *testing.T) {
	cp := testCheckpoint(6, 4, 1, 2, 1)
	v1 := frame.Format{Name: "EBVK", Version: 1, Words: 8}
	buf := v1.Begin(0, 1, 0, 2, 1, cp.Step, 1, 4, 2)
	buf = frame.AppendF64s(buf, cp.State.Data)
	buf = frame.AppendU32s(buf, cp.InboxIDs)
	buf = frame.AppendF64s(buf, cp.InboxVals)
	_, _, err := DecodeCheckpoint(frame.Seal(buf))
	if err == nil || !strings.Contains(err.Error(), "EBVK version 1, this build reads 2") {
		t.Fatalf("v1 checkpoint: err = %v, want one naming version 1", err)
	}
}

// FuzzDecodeCheckpoint: DecodeCheckpoint over arbitrary bytes never
// panics, and a file it accepts re-encodes to exactly those bytes; a
// checkpoint built from the same bytes round-trips bit-exactly through
// EncodeCheckpoint, and every truncation and sampled single-bit flip of
// its encoding fails loudly.
func FuzzDecodeCheckpoint(f *testing.F) {
	seed, err := EncodeCheckpoint(CheckpointMeta{Job: 1, Part: 0, Workers: 2, Width: 2}, testCheckpoint(3, 4, 1, 2, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint8(1), uint8(0), uint16(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint16(5))
	f.Add(bytes.Repeat([]byte{0x7f, 0xf8, 0, 1}, 40), uint8(3), uint8(2), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, w, sw uint8, step uint16) {
		if meta, cp, err := DecodeCheckpoint(raw); err == nil {
			again, err := EncodeCheckpoint(meta, cp)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			if !bytes.Equal(again, raw) {
				t.Fatalf("accepted checkpoint re-encodes to %d different bytes (read %d)", len(again), len(raw))
			}
		}

		width, stateWidth := int(w%4)+1, int(sw%4)+1
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		stateRows := len(vals) / 2 / stateWidth
		state := &graph.ValueMatrix{Width: stateWidth, Data: vals[:stateRows*stateWidth]}
		inbox := vals[stateRows*stateWidth:]
		inbox = inbox[:len(inbox)/width*width]
		cp := &bsp.Checkpoint{Step: int(step) + 1, State: state, InboxVals: inbox,
			Vote: bsp.Vote{Min: math.Float64frombits(uint64(step) << 48), Flag: w&4 != 0, Voted: w&8 != 0}}
		for i := 0; i < len(inbox); i += width {
			cp.InboxIDs = append(cp.InboxIDs, graph.VertexID(math.Float64bits(inbox[i])>>32))
		}
		meta := CheckpointMeta{Job: int(step % 7), Part: int(sw), Workers: 256, Width: width}
		data, err := EncodeCheckpoint(meta, cp)
		if err != nil {
			t.Fatal(err)
		}
		gotMeta, got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		bits := func(v []float64) []uint64 {
			out := make([]uint64, len(v))
			for i, x := range v {
				out[i] = math.Float64bits(x)
			}
			return out
		}
		if gotMeta != meta || got.Step != cp.Step || got.State.Width != stateWidth ||
			math.Float64bits(got.Vote.Min) != math.Float64bits(cp.Vote.Min) ||
			got.Vote.Flag != cp.Vote.Flag || got.Vote.Voted != cp.Vote.Voted ||
			!slices.Equal(bits(got.State.Data), bits(state.Data)) ||
			!slices.Equal(got.InboxIDs, cp.InboxIDs) || !slices.Equal(bits(got.InboxVals), bits(inbox)) {
			t.Fatalf("round trip changed the checkpoint: meta %+v step %d", gotMeta, got.Step)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, _, err := DecodeCheckpoint(data[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded", cut, len(data))
			}
		}
		stride := 1
		if len(data) > 512 {
			stride = len(data) / 64
		}
		for bit := 0; bit < len(data)*8; bit += stride {
			corrupt := bytes.Clone(data)
			corrupt[bit/8] ^= 1 << (bit % 8)
			if _, _, err := DecodeCheckpoint(corrupt); err == nil {
				t.Fatalf("bit flip at %d decoded", bit)
			}
		}
	})
}

func TestCheckpointNameRoundTrip(t *testing.T) {
	job, part, step, ok := parseCheckpointName(checkpointName(7, 2, 40))
	if !ok || job != 7 || part != 2 || step != 40 {
		t.Fatalf("parse = (%d,%d,%d,%v)", job, part, step, ok)
	}
	for _, bad := range []string{"", "notes.txt", "ebv-j1-p0-s2.ckpt.tmp-123", "ebv-j1-p0-s02.ckpt", "ebv-jx-p0-s2.ckpt"} {
		if _, _, _, ok := parseCheckpointName(bad); ok {
			t.Fatalf("parsed foreign name %q", bad)
		}
	}
}

// writeEpoch writes one complete epoch (all parts) for a job.
func writeEpoch(t *testing.T, dir string, job, workers, step int) {
	t.Helper()
	for p := 0; p < workers; p++ {
		meta := CheckpointMeta{Job: job, Part: p, Workers: workers, Width: 1}
		if err := WriteCheckpointFile(dir, meta, testCheckpoint(step, 10+p, 1, 3, 1)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectRestoreEpoch(t *testing.T) {
	dir := t.TempDir()
	const job, workers = 1, 3

	// No directory / empty directory: no epoch, no error.
	if _, ok, err := SelectRestoreEpoch(filepath.Join(dir, "absent"), job, workers); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}

	writeEpoch(t, dir, job, workers, 4)
	writeEpoch(t, dir, job, workers, 8)
	writeEpoch(t, dir, job, workers, 12)
	writeEpoch(t, dir, 2, workers, 99) // another job's epoch never leaks in

	step, ok, err := SelectRestoreEpoch(dir, job, workers)
	if err != nil || !ok || step != 12 {
		t.Fatalf("full dir: step=%d ok=%v err=%v, want 12", step, ok, err)
	}

	// A partial epoch — one worker died before its rename landed — is
	// never selected: drop part 1's file from epoch 12.
	if err := os.Remove(CheckpointPath(dir, job, 1, 12)); err != nil {
		t.Fatal(err)
	}
	step, ok, err = SelectRestoreEpoch(dir, job, workers)
	if err != nil || !ok || step != 8 {
		t.Fatalf("partial epoch 12: step=%d ok=%v err=%v, want 8", step, ok, err)
	}

	// A complete-looking epoch with one corrupt file is skipped too.
	path := CheckpointPath(dir, job, 2, 8)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	step, ok, err = SelectRestoreEpoch(dir, job, workers)
	if err != nil || !ok || step != 4 {
		t.Fatalf("corrupt epoch 8: step=%d ok=%v err=%v, want 4", step, ok, err)
	}

	// No complete valid epoch at all: ok=false.
	if err := os.Remove(CheckpointPath(dir, job, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := SelectRestoreEpoch(dir, job, workers); err != nil || ok {
		t.Fatalf("no valid epoch: ok=%v err=%v", ok, err)
	}
}
