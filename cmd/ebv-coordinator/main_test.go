package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownAppFailsBeforeLoad runs the real command with an -app name
// the registry does not know: it must exit non-zero with the registry's
// error before it loads, partitions or listens, so no COORDINATOR line is
// ever printed.
func TestUnknownAppFailsBeforeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "ebv/cmd/ebv-gen", "ebv/cmd/ebv-coordinator")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) (string, error) {
		cmd := exec.Command(filepath.Join(dir, name), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	if out, err := run("ebv-gen", "-kind", "powerlaw", "-vertices", "500", "-edges", "3000", "-out", "g.txt"); err != nil {
		t.Fatalf("ebv-gen: %v\n%s", err, out)
	}
	out, err := run("ebv-coordinator", "-in", "g.txt", "-parts", "2", "-app", "bogus")
	if err == nil {
		t.Fatalf("-app bogus exited 0:\n%s", out)
	}
	if !strings.Contains(out, `apps: unknown app "bogus"`) {
		t.Errorf("output does not carry the registry's error:\n%s", out)
	}
	if strings.Contains(out, "COORDINATOR") {
		t.Errorf("the coordinator loaded and listened before rejecting the name:\n%s", out)
	}
}
