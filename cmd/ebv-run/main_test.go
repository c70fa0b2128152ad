package main

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestBinaryFormatSmoke drives the binary file formats through the real
// commands: ebv-gen -format binary writes an EBVG graph, ebv-partition
// -assignment a.bin an EBVA assignment, and ebv-run over both must report
// the replication factor ebv-partition printed. A graph file in the
// version-1 EBVG layout and an assignment file from before EBVA had a
// version word must each fail with an error naming the version.
func TestBinaryFormatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"ebv/cmd/ebv-gen", "ebv/cmd/ebv-partition", "ebv/cmd/ebv-run")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) (string, error) {
		cmd := exec.Command(filepath.Join(dir, name), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	rf := func(out, pattern string) float64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no %q in output:\n%s", pattern, out)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	outputs := map[string]string{}
	for _, step := range [][]string{
		{"ebv-gen", "-kind", "powerlaw", "-vertices", "2000", "-edges", "12000", "-format", "binary", "-out", "g.bin"},
		{"ebv-partition", "-in", "g.bin", "-parts", "4", "-assignment", "a.bin"},
		{"ebv-run", "-in", "g.bin", "-assignment", "a.bin", "-app", "CC"},
	} {
		out, err := run(step[0], step[1:]...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(step, " "), err, out)
		}
		t.Logf("%s:\n%s", step[0], out)
		outputs[step[0]] = out
	}
	// ebv-partition prints four decimals, ebv-run three.
	want := rf(outputs["ebv-partition"], `replication factor +([0-9.]+)`)
	if got := rf(outputs["ebv-run"], `\(RF ([0-9.]+),`); math.Abs(got-want) > 6e-4 {
		t.Errorf("ebv-run reports RF %.3f over a.bin, ebv-partition wrote it at %.4f", got, want)
	}

	// Version-1 EBVG: magic, version, flags, |V|, u64 |E|, no checksum.
	old := binary.LittleEndian.AppendUint32(nil, 0x45425647)
	for _, w := range []uint32{1, 0, 2} {
		old = binary.LittleEndian.AppendUint32(old, w)
	}
	old = binary.LittleEndian.AppendUint64(old, 1)
	old = binary.LittleEndian.AppendUint64(old, 1<<32) // edge 0 → 1
	// EBVA before its version word: magic, k, u64 count, the part ids.
	oldAssign := binary.LittleEndian.AppendUint32(nil, 0x45425641)
	oldAssign = binary.LittleEndian.AppendUint32(oldAssign, 4)
	oldAssign = binary.LittleEndian.AppendUint64(oldAssign, 1)
	oldAssign = binary.LittleEndian.AppendUint32(oldAssign, 3)
	for name, data := range map[string][]byte{"old.bin": old, "old-a.bin": oldAssign} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", "old.bin"}, "EBVG version 1, this build reads 2"},
		{[]string{"-in", "g.bin", "-assignment", "old-a.bin"}, "EBVA version 4, this build reads 2"},
	} {
		out, err := run("ebv-run", tc.args...)
		if err == nil || !strings.Contains(out, tc.want) {
			t.Errorf("ebv-run %s: err %v, output %q; want a failure naming %q", strings.Join(tc.args, " "), err, out, tc.want)
		}
	}
}
