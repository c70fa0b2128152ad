// Package frametest is the damage every framed format must reject, run
// through each format's own decoder by its package's tests.
package frametest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ebv/internal/frame"
)

// Formats names every framed format of the module.
var Formats = []string{"EBVC", "EBVK", "EBVS", "EBVG", "EBVA"}

// Check requires decode to accept sample, a valid frame of the named
// format, and to reject every truncation and every single-bit flip of it,
// the sample re-sealed under any other format's magic (naming the magic)
// and re-sealed at the next version (naming that version).
func Check(t *testing.T, name string, sample []byte, decode func([]byte) error) {
	t.Helper()
	if err := decode(sample); err != nil {
		t.Fatalf("%s: valid sample rejected: %v", name, err)
	}
	for n := range len(sample) {
		if decode(sample[:n]) == nil {
			t.Fatalf("%s: truncation to %d of %d bytes accepted", name, n, len(sample))
		}
	}
	for bit := range 8 * len(sample) {
		flipped := bytes.Clone(sample)
		flipped[bit/8] ^= 1 << (bit % 8)
		if decode(flipped) == nil {
			t.Fatalf("%s: bit %d flipped accepted", name, bit)
		}
	}
	resealed := func(at int, word []byte) error {
		b := bytes.Clone(sample[:len(sample)-4])
		copy(b[at:], word)
		return decode(frame.Seal(b))
	}
	for _, other := range Formats {
		if other == name {
			continue
		}
		if err := resealed(0, frame.Format{Name: other}.Begin(0)[:4]); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("%s: sample under the %s magic: err = %v, want a magic error", name, other, err)
		}
	}
	next := binary.LittleEndian.Uint32(sample[4:]) + 1
	want := fmt.Sprintf("%s version %d", name, next)
	if err := resealed(4, binary.LittleEndian.AppendUint32(nil, next)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: sample at version %d: err = %v, want one naming the version", name, next, err)
	}
}
