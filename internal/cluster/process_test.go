package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles ebv-coordinator and ebv-worker into dir.
func buildBinaries(t *testing.T, dir string) (coordBin, workerBin string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	coordBin = filepath.Join(dir, "ebv-coordinator")
	workerBin = filepath.Join(dir, "ebv-worker")
	for bin, pkg := range map[string]string{coordBin: "./cmd/ebv-coordinator", workerBin: "./cmd/ebv-worker"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return coordBin, workerBin
}

// startCoordinator launches the coordinator and scrapes the bound
// control-plane address from its first stdout line.
func startCoordinator(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "COORDINATOR "); ok {
				addrCh <- rest
				break
			}
		}
		// Drain the rest so the coordinator never blocks on a full pipe.
		for sc.Scan() {
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			_ = cmd.Process.Kill()
			t.Fatalf("coordinator printed no COORDINATOR line; stderr:\n%s", stderr.String())
		}
		return cmd, addr, &stderr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("timed out waiting for the coordinator address; stderr:\n%s", stderr.String())
		return nil, "", nil
	}
}

func startWorker(t *testing.T, bin, coordAddr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-coordinator", coordAddr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestClusterProcessSmoke is the whole story at the process level: a
// coordinator and three ebv-worker processes run PageRank; one worker is
// SIGKILLed mid-run and a replacement process joins; the output file must
// be byte-identical to an undisturbed deployment's. (PageRank, because
// its superstep count is fixed by -iters regardless of partition shape,
// guarantees the kill lands mid-run; CC over EBV's contiguous partitions
// converges in a handful of supersteps.)
func TestClusterProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short")
	}
	dir := t.TempDir()
	coordBin, workerBin := buildBinaries(t, dir)

	graphPath := filepath.Join(dir, "path.txt")
	var sb strings.Builder
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	if err := os.WriteFile(graphPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(label string, kill bool) []byte {
		t.Helper()
		ckptDir := filepath.Join(dir, "ckpt-"+label)
		outPath := filepath.Join(dir, "out-"+label+".txt")
		coord, addr, stderr := startCoordinator(t, coordBin,
			"-in", graphPath, "-algo", "EBV", "-parts", "3",
			"-app", "PR", "-iters", "300",
			"-checkpoint-dir", ckptDir, "-checkpoint-every", "5",
			"-out", outPath, "-v")
		t.Logf("%s: coordinator at %s", label, addr)

		workers := make([]*exec.Cmd, 3)
		for i := range workers {
			workers[i] = startWorker(t, workerBin, addr)
		}
		if kill {
			// Wait for a complete checkpoint epoch, then SIGKILL one worker
			// and bring up a replacement process.
			deadline := time.Now().Add(60 * time.Second)
			for {
				if _, ok, err := SelectRestoreEpoch(ckptDir, 1, 3); err == nil && ok {
					break
				}
				if time.Now().After(deadline) {
					_ = coord.Process.Kill()
					t.Fatalf("%s: no complete checkpoint epoch appeared", label)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := workers[1].Process.Kill(); err != nil { // SIGKILL, no goodbye
				t.Fatal(err)
			}
			workers = append(workers, startWorker(t, workerBin, addr))
		}

		if err := coord.Wait(); err != nil {
			t.Fatalf("%s: coordinator: %v\nstderr:\n%s", label, err, stderr.String())
		}
		for _, w := range workers {
			_ = w.Wait() // exit codes vary by mode of death; the output file is the oracle
		}
		if kill && !strings.Contains(stderr.String(), "restoring from checkpoint epoch") {
			t.Fatalf("%s: coordinator never restored from a checkpoint; stderr:\n%s", label, stderr.String())
		}
		out, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty output", label)
		}
		return out
	}

	clean := run("clean", false)
	faulty := run("faulty", true)
	if !bytes.Equal(clean, faulty) {
		t.Fatal("output after kill -9 + recovery differs from the undisturbed run")
	}
	t.Logf("clean and post-failover outputs are byte-identical (%d bytes)", len(clean))
}
