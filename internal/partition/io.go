package partition

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ebv/internal/frame"
)

// Assignment interchange formats. The text format is one part id per line
// (the convention METIS tooling uses). The binary format is an EBVA frame
// (package frame) with header words k and count and a body of count u32
// part ids, so the part count and edge count round-trip exactly. Version 1
// had no version word: its part count sits where the version now is.
var assignmentFrame = frame.Format{Name: "EBVA", Version: 2, Words: 2}

// WriteAssignmentText writes one part id per line.
func WriteAssignmentText(w io.Writer, a *Assignment) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# parts %d edges %d\n", a.K, len(a.Parts)); err != nil {
		return fmt.Errorf("partition: write assignment header: %w", err)
	}
	for _, p := range a.Parts {
		bw.WriteString(strconv.Itoa(int(p)))
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("partition: write assignment: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("partition: flush assignment: %w", err)
	}
	return nil
}

// ReadAssignmentText reads the text format. The part count is recovered
// from the header when present, else from the maximum id seen.
func ReadAssignmentText(r io.Reader) (*Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	a := &Assignment{}
	headerK := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			for i := 0; i+1 < len(fields); i++ {
				if fields[i] == "parts" {
					if k, err := strconv.Atoi(fields[i+1]); err == nil {
						headerK = k
					}
				}
			}
			continue
		}
		p, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("partition: parse assignment line %q: %w", line, err)
		}
		if p < 0 {
			return nil, fmt.Errorf("partition: negative part id %d", p)
		}
		if p >= a.K {
			a.K = p + 1
		}
		a.Parts = append(a.Parts, int32(p))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("partition: scan assignment: %w", err)
	}
	if headerK > 0 {
		if headerK < a.K {
			return nil, fmt.Errorf("partition: header claims %d parts, saw id %d", headerK, a.K-1)
		}
		a.K = headerK
	}
	if a.K == 0 {
		a.K = 1
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// WriteAssignmentBinary writes the binary format.
func WriteAssignmentBinary(w io.Writer, a *Assignment) error {
	if err := assignmentFrame.WriteBlocks(w, len(a.Parts), 4, func(dst []byte, i int) {
		binary.LittleEndian.PutUint32(dst, uint32(a.Parts[i]))
	}, a.K, len(a.Parts)); err != nil {
		return fmt.Errorf("partition: write assignment: %w", err)
	}
	return nil
}

// ReadAssignmentBinary reads the binary format. The entries grow with the
// bytes that arrive, so a count word cannot size an allocation.
func ReadAssignmentBinary(r io.Reader) (*Assignment, error) {
	fr, word, err := assignmentFrame.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("partition: assignment file: %w", err)
	}
	if word[0] > MaxParts { // before it becomes an int; Validate checks the rest
		return nil, fmt.Errorf("partition: %d parts exceed the cap of %d", word[0], MaxParts)
	}
	a := &Assignment{K: int(word[0]), Parts: make([]int32, 0, min(word[1], 1<<16))}
	if err := fr.ReadBlocks(word[1], 4, func(b []byte) {
		a.Parts = append(a.Parts, int32(binary.LittleEndian.Uint32(b)))
	}); err != nil {
		return nil, fmt.Errorf("partition: assignment file: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
