package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/serve"
)

// TestGraphFlagSet runs the -graph parser over every option key and every
// rejection it has.
func TestGraphFlagSet(t *testing.T) {
	var g graphFlags
	for _, v := range []string{
		"a=a.txt",
		"b=b.bin,k=16,undirected,retention=-1,policy=hdrf,verify",
	} {
		if err := g.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	want := graphFlags{
		{Name: "a", Path: "a.txt"},
		{Name: "b", Path: "b.bin", Subgraphs: 16, Undirected: true,
			StatsRetention: -1, MutationPolicy: "hdrf", VerifyMutations: true},
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("parsed %+v, want %+v", g, want)
	}
	if g.String() != "a,b" {
		t.Fatalf("String() = %q, want a,b", g.String())
	}

	for _, tc := range []struct{ value, want string }{
		{"nopath", "want name=path"},
		{"=g.txt", "want name=path"},
		{"a=", "empty path"},
		{"a=,k=4", "empty path"},
		{"a=g.txt,k=0", "bad subgraph count"},
		{"a=g.txt,k=four", "bad subgraph count"},
		{"a=g.txt,retention=many", "bad stats retention"},
		{"a=g.txt,directed", `unknown option "directed"`},
	} {
		err := g.Set(tc.value)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Set(%q) = %v, want an error containing %q", tc.value, err, tc.want)
		}
	}
	if len(g) != len(want) {
		t.Fatalf("a rejected value was appended: %+v", g)
	}
}

// TestServeProcessSmoke drives the real binary: bind on :0, learn the
// address from the "serving" line, answer a fixed cc:5,pr:3,sssp:2
// sequence of 30 jobs with a mutation batch in the middle, account for all
// of them on /metrics, then drain on SIGTERM and exit 0.
func TestServeProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ebv-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	g, err := gen.PowerLaw(gen.PowerLawConfig{NumVertices: 2000, NumEdges: 12000, Eta: 2.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, g); err != nil {
		t.Fatal(err)
	}
	graphPath := filepath.Join(dir, "smoke.txt")
	if err := os.WriteFile(graphPath, edges.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	const drainTimeout = 10 * time.Second
	cmd := exec.Command(bin, "-graph", "smoke="+graphPath+",k=4,undirected",
		"-listen", "127.0.0.1:0", "-drain-timeout", drainTimeout.String())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// One reader owns the pipe until EOF (the process's exit); the test
	// reads log only after exited is closed.
	var log strings.Builder
	addrCh := make(chan string, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "] on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	fail := func(format string, args ...any) {
		t.Helper()
		_ = cmd.Process.Kill()
		<-exited
		_ = cmd.Wait()
		t.Fatalf(format+"\nstderr:\n%s", append(args, log.String())...)
	}
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-exited:
		fail("ebv-serve exited before announcing its address")
	case <-time.After(30 * time.Second):
		fail("timed out waiting for the serving line")
	}
	t.Logf("ebv-serve at %s", base)

	client := &http.Client{Timeout: 60 * time.Second}
	post := func(path string, body any) {
		t.Helper()
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			fail("POST %s: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("POST %s %s = %d: %s", path, payload, resp.StatusCode, msg)
		}
	}
	round := []string{"cc", "cc", "cc", "cc", "cc", "pr", "pr", "pr", "sssp", "sssp"}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, app := range round {
			post("/v1/jobs", serve.JobRequest{Graph: "smoke", App: app})
		}
		if r == 0 {
			post("/v1/graphs/smoke/mutations", serve.MutationRequest{Mutations: []serve.MutationItem{
				{Op: "insert", Src: 0, Dst: 1999}, {Op: "insert", Src: 5, Dst: 1000}, {Op: "insert", Src: 1998, Dst: 1999},
			}})
		}
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		fail("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("ebv_serve_jobs_admitted_total %d", rounds*len(round)+1), // the batch is admitted like a job
		fmt.Sprintf(`ebv_serve_jobs_completed_total{app="CC"} %d`, rounds*5),
		fmt.Sprintf(`ebv_serve_jobs_completed_total{app="PR"} %d`, rounds*3),
		fmt.Sprintf(`ebv_serve_jobs_completed_total{app="SSSP"} %d`, rounds*2),
		"ebv_live_batches_total 1",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			fail("/metrics is missing %q:\n%s", want, metrics)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(drainTimeout + 5*time.Second):
		fail("ebv-serve still running %v after SIGTERM", drainTimeout+5*time.Second)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("ebv-serve after SIGTERM: %v\nstderr:\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Fatalf("no \"drained cleanly\" line; stderr:\n%s", log.String())
	}
	t.Logf("stderr:\n%s", log.String())
}
