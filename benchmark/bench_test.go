package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// that emits its metrics from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("BENCHMARK.json has extra keys %v", keys)
	}

	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1,60]", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name, m.Unit)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, the program emits %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name, m.Unit)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program emits %+v", i, m, d)
		}
	}
}

// contractLine parses the last line of a run's standard output.
type contractLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// TestSmokeAllWorkloads runs every workload end to end at 2 % of the
// pinned sizes — generated inputs, real sockets, oracle checks — and the
// result file through --check.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(dir, w.name+".json")
		code := realMain([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--scale", "0.02",
			"--trace", "0", "--dir", dir, "--out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s\n%s", w.name, code, stdout.String(), stderr.String())
		}
		line := lastLine(t, stdout.String())
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: %+v", w.name, line)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the contract line, want %d", w.name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m := line.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, m)
			}
		}
		file, err := readResultFile(out)
		if err != nil {
			t.Fatal(err)
		}
		rec := file.Runs[0]
		if len(rec.Inputs) == 0 || len(rec.Inputs[0].SHA256) != 64 || rec.Inputs[0].Vertices == 0 || rec.Inputs[0].Edges == 0 {
			t.Errorf("%s: inputs not recorded: %+v", w.name, rec.Inputs)
		}
		if s := rec.Metrics["setup_s"]; s.N != rounds*w.opensPerRound || s.N < 10 || s.Q1 > s.Value || s.Q3 < s.Value {
			t.Errorf("%s: setup_s summary %+v", w.name, s)
		}
		if s := rec.Metrics["cycle_s"]; s.N < 15 {
			t.Errorf("%s: %d cycle_s samples, want at least 15", w.name, s.N)
		}
		if rec.Plan != w.plan() {
			t.Errorf("%s: recorded plan %+v, want %+v", w.name, rec.Plan, w.plan())
		}
	}

	// The same seed reproduces the inputs, so two result sets compare.
	a := filepath.Join(dir, "road-tcp.json")
	b := filepath.Join(dir, "again.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "road-tcp", "--seed", "7", "--seconds", "0.3", "--scale", "0.02",
		"--dir", dir, "--out", b}, &stdout, &stderr); code != 0 {
		t.Fatalf("rerun: exit %d\n%s", code, stderr.String())
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	stdout.Reset()
	runCheck(&stdout, &stderr, bench, a, b)
	if !strings.Contains(stdout.String(), "replication_factor") || strings.Contains(stdout.String(), "not comparable") {
		t.Errorf("--check of two runs of one seed:\n%s", stdout.String())
	}

	// A doubled cycle_s with tight quartiles is a regression; a higher
	// failure rate is one too.
	file, err := readResultFile(a)
	if err != nil {
		t.Fatal(err)
	}
	tight := func(v float64) summary { return summary{Value: v, Unit: "s", N: 20, Q1: v * 0.99, Q3: v * 1.01} }
	file.Runs[0].Metrics["setup_s"], file.Runs[0].Metrics["cycle_s"] = tight(1), tight(1)
	if err := writeResultFile(a, file); err != nil {
		t.Fatal(err)
	}
	file.Runs[0].Metrics["cycle_s"] = tight(2)
	if err := writeResultFile(b, file); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := runCheck(&stdout, &stderr, bench, a, b); code != 1 || !strings.Contains(stdout.String(), verdictRegressed) {
		t.Errorf("doubled cycle_s: exit %d\n%s", code, stdout.String())
	}
	if code := runCheck(&stdout, &stderr, bench, a, a); code != 0 {
		t.Errorf("a file against itself: exit %d", code)
	}
	// rewrite stores a changed copy of a's (single) run as b.
	rewrite := func(change func(rec *runRecord)) {
		t.Helper()
		file, err := readResultFile(a)
		if err != nil {
			t.Fatal(err)
		}
		change(&file.Runs[0])
		if err := writeResultFile(b, file); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(func(rec *runRecord) { rec.OpsFailed = 1 })
	if code := runCheck(&stdout, &stderr, bench, a, b); code != 1 {
		t.Errorf("a failed op: exit %d", code)
	}
	// The replication factor is exact for one input: a worsening inside
	// BENCHMARK.json's bound is still a regression.
	rewrite(func(rec *runRecord) {
		rf := rec.Metrics["replication_factor"]
		rec.Metrics["replication_factor"] = exact(rf.Value*1.001, rf.Unit, rf.Better)
	})
	stdout.Reset()
	if code := runCheck(&stdout, &stderr, bench, a, b); code != 1 || !strings.Contains(stdout.String(), verdictRegressed) {
		t.Errorf("replication factor 0.1%% worse: exit %d\n%s", code, stdout.String())
	}
	// Runs measured for another time or on another sample plan do not compare.
	rewrite(func(rec *runRecord) { rec.Seconds *= 2 })
	if code := runCheck(&stdout, &stderr, bench, a, b); code != 1 {
		t.Errorf("other --seconds: exit %d", code)
	}
	rewrite(func(rec *runRecord) { rec.Plan.OpensPerRound++ })
	if code := runCheck(&stdout, &stderr, bench, a, b); code != 1 {
		t.Errorf("other sample plan: exit %d", code)
	}
	// A candidate set that drops a run fails, whichever side lacks it.
	file.Runs = nil
	if err := writeResultFile(b, file); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := runCheck(&stdout, &stderr, bench, a, b); code != 1 || !strings.Contains(stdout.String(), "missing in "+b) {
		t.Errorf("run missing in b: exit %d\n%s", code, stdout.String())
	}
	if code := runCheck(&stdout, &stderr, bench, b, a); code != 1 {
		t.Errorf("run missing in a: exit %d", code)
	}
}

// TestSmokeTracedRun runs the traced run of the two workloads with the
// richest paths: every per-layer metric is on the contract line, the
// trace file is valid trace-event JSON, and the layer self times add up.
func TestSmokeTracedRun(t *testing.T) {
	for _, name := range []string{"cluster-w8", "serve-mixed"} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"--workload", name, "--seed", "7", "--seconds", "0.3", "--scale", "0.02",
			"--trace", "1", "--dir", dir}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s\n%s", name, code, stdout.String(), stderr.String())
		}
		line := lastLine(t, stdout.String())
		if !line.Correct || len(line.Metrics) != len(perLayer) {
			t.Fatalf("%s: correct=%v, %d metrics, want %d", name, line.Correct, len(line.Metrics), len(perLayer))
		}
		positive := []string{"graph.parse_s", "core.partition_s", "partition.rf", "bsp.build_s", "bsp.run_mem_s", "bsp.run_tcp_s",
			"bsp.steps", "bsp.rows_wire", "transport.wire_bytes", "transport.small.rows_per_s", "transport.merge_rows_per_s"}
		if name == "cluster-w8" {
			positive = append(positive, "cluster.register_ship_s", "cluster.attempts", "apps.AGG.job_s")
		} else {
			positive = append(positive, "serve.run_s", "serve.warm_s", "live.apply_s", "apps.CC.job_s")
		}
		for _, m := range positive {
			if line.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v", name, m, line.Metrics[m].Value)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, "results", "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Fatalf("%s: trace file: %v, %d events", name, err, len(trace.TraceEvents))
		}
		for _, ev := range trace.TraceEvents {
			if ev.Ph != "X" || ev.Name == "" || ev.Cat == "" || ev.Dur < 0 || ev.Args["workload"] != name {
				t.Fatalf("%s: malformed event %+v", name, ev)
			}
		}
		if !strings.Contains(stdout.String(), "layer self time") {
			t.Errorf("%s: no self-time table printed", name)
		}
	}
}

func TestMutationStreamReplays(t *testing.T) {
	in, err := powerLawInput(t.TempDir(), "pl", 11, 500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	m := newMutationStream(in.oracle, 11, 50)
	b0, err := m.batch(0)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := m.batch(0)
	if len(b0) != 50 || len(again) != 50 {
		t.Fatalf("batch sizes %d, %d", len(b0), len(again))
	}
	inserts := 0
	for i := range b0 {
		if b0[i] != again[i] {
			t.Fatalf("batch 0 is not a pure function of the seed")
		}
		if b0[i].insert {
			inserts++
		}
	}
	if inserts != 40 {
		t.Errorf("%d inserts of 50, want 80%%", inserts)
	}
	g, err := m.replay(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := in.oracle.NumEdges() + 3*40 - 3*10; g.NumEdges() != want {
		t.Errorf("replayed graph has %d edges, want %d", g.NumEdges(), want)
	}
	if _, err := m.batch(m.capacity); err == nil {
		t.Errorf("a batch past the delete order's end must fail, not repeat deletes")
	}
}
