// Lifecycle tests for the graph-query service: job round-trips checked
// against the sequential oracles, admission rejection at capacity,
// deadlines canceling mid-superstep jobs without hurting the deployment,
// LRU eviction draining in-flight work, graceful shutdown, and a
// goroutine-leak check over a full open → serve → shutdown cycle.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv"
)

// testGraph builds the small undirected power-law graph the serve tests
// share. Deterministic (fixed seed) so oracle comparisons are exact.
func testGraph(t testing.TB) *ebv.Graph {
	t.Helper()
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 600, NumEdges: 4000, Eta: 2.3, Directed: false, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSpec(t testing.TB, name string) GraphSpec {
	return GraphSpec{
		Name:      name,
		Generate:  func() (*ebv.Graph, error) { return testGraph(t), nil },
		Subgraphs: 4,
	}
}

// newTestServer builds a Server plus an httptest front end, both torn
// down at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Graphs == nil {
		cfg.Graphs = []GraphSpec{testSpec(t, "g")}
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// postJob sends one job request and decodes the response either way.
func doJob(t *testing.T, ts *httptest.Server, req JobRequest) (int, *JobResponse, string, http.Header) {
	t.Helper()
	payload, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("bad 200 body %q: %v", body, err)
		}
		return resp.StatusCode, &jr, "", resp.Header
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad %d body %q: %v", resp.StatusCode, body, err)
	}
	return resp.StatusCode, nil, er.Error, resp.Header
}

// waitInflight polls until exactly n jobs hold run slots.
func waitInflight(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for srv.metrics.inflight.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d (now %d)", n, srv.metrics.inflight.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeJobRoundTrip runs CC and SSSP through the full HTTP path and
// checks the returned vertex values against the sequential oracles.
func TestServeJobRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	g := testGraph(t)
	probe := []int64{0, 1, 2, 3, 599}

	wantCC := ebv.SequentialCC(g)
	status, jr, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc", Vertices: probe})
	if status != http.StatusOK {
		t.Fatalf("cc status = %d", status)
	}
	if jr.Program != "CC" || jr.Job != 1 || jr.Steps <= 0 || jr.ValueWidth != 1 {
		t.Fatalf("cc response header fields = %+v", jr)
	}
	if jr.Messages.Wire <= 0 || jr.Messages.Emitted != jr.Messages.Wire || jr.Messages.Delivered != jr.Messages.Wire {
		t.Fatalf("cc message counts = %+v", jr.Messages)
	}
	if jr.RunTimeMS <= 0 || jr.TotalTimeMS < jr.RunTimeMS {
		t.Fatalf("cc timings = run %v total %v", jr.RunTimeMS, jr.TotalTimeMS)
	}
	if len(jr.Values) != len(probe) {
		t.Fatalf("cc returned %d values, want %d", len(jr.Values), len(probe))
	}
	for i, vv := range jr.Values {
		if vv.Vertex != probe[i] || !vv.Covered || len(vv.Value) != 1 {
			t.Fatalf("cc value[%d] = %+v", i, vv)
		}
		if vv.Value[0] != wantCC[probe[i]] {
			t.Fatalf("cc vertex %d = %v, oracle %v", probe[i], vv.Value[0], wantCC[probe[i]])
		}
	}

	wantSSSP := ebv.SequentialSSSP(g, 0)
	status, jr, _, _ = doJob(t, ts, JobRequest{Graph: "g", App: "sssp", Source: 0, Vertices: probe})
	if status != http.StatusOK {
		t.Fatalf("sssp status = %d", status)
	}
	if jr.Job != 2 || jr.Program != "SSSP" {
		t.Fatalf("sssp response = %+v", jr)
	}
	for i, vv := range jr.Values {
		if vv.Value[0] != wantSSSP[probe[i]] {
			t.Fatalf("sssp vertex %d = %v, oracle %v", probe[i], vv.Value[0], wantSSSP[probe[i]])
		}
	}

	// Out-of-range vertices come back uncovered, not as an error.
	status, jr, _, _ = doJob(t, ts, JobRequest{Graph: "g", App: "cc", Vertices: []int64{-1, math.MaxInt64, 10}})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if jr.Values[0].Covered || jr.Values[1].Covered || !jr.Values[2].Covered {
		t.Fatalf("coverage flags = %+v", jr.Values)
	}

	if got := srv.metrics.completed.Value("CC") + srv.metrics.completed.Value("SSSP"); got != 3 {
		t.Fatalf("completed total = %d, want 3", got)
	}
}

// TestServeNonFiniteValues: an SSSP distance to a vertex the source cannot
// reach is +Inf, which a JSON number cannot carry; the response is still a
// well-formed 200 whose rows read +Inf. Row encodes finite rows exactly as
// []float64 does and round-trips every non-finite value.
func TestServeNonFiniteValues(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Source 100000 is a valid vertex id that the 600-vertex graph lacks.
	status, jr, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "sssp", Source: 100000, Vertices: []int64{0, 1, 2}})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, msg)
	}
	if len(jr.Values) != 3 {
		t.Fatalf("%d values, want 3", len(jr.Values))
	}
	for _, vv := range jr.Values {
		if !vv.Covered || len(vv.Value) != 1 || !math.IsInf(vv.Value[0], 1) {
			t.Fatalf("vertex %d = %+v, want a covered +Inf", vv.Vertex, vv)
		}
	}

	for _, row := range []Row{nil, {}, {0, 1.5, -2, 1e300, 5e-324}} {
		got, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal([]float64(row))
		if !bytes.Equal(got, want) {
			t.Fatalf("finite row %v encodes as %s, []float64 as %s", row, got, want)
		}
	}
	row := Row{math.Inf(1), 3, math.Inf(-1), math.NaN()}
	enc, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	if want := `["+Inf",3,"-Inf","NaN"]`; string(enc) != want {
		t.Fatalf("non-finite row encodes as %s, want %s", enc, want)
	}
	var back Row
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(row) || !math.IsInf(back[0], 1) || back[1] != 3 || !math.IsInf(back[2], -1) || !math.IsNaN(back[3]) {
		t.Fatalf("round trip gave %v, want %v", back, row)
	}
	if err := json.Unmarshal([]byte(`["Infinity"]`), &back); err == nil {
		t.Fatal(`"Infinity" decoded without error`)
	}
}

// TestServeGraphsAndMetricsEndpoints checks the listing (with and
// without ?stats=1), /healthz and the /metrics exposition after traffic.
func TestServeGraphsAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Graphs: []GraphSpec{testSpec(t, "a"), testSpec(t, "b")}})
	if status, _, _, _ := doJob(t, ts, JobRequest{Graph: "a", App: "cc"}); status != http.StatusOK {
		t.Fatalf("cc status = %d", status)
	}

	var listing graphsResponse
	getJSON(t, ts.URL+"/v1/graphs", &listing)
	if len(listing.Graphs) != 2 || listing.Graphs[0].Name != "a" || listing.Graphs[1].Name != "b" {
		t.Fatalf("listing = %+v", listing)
	}
	if g := listing.Graphs[0]; g.State != "ready" || g.Subgraphs != 4 || g.Vertices != 600 || g.JobsServed != 1 || g.Stats != nil {
		t.Fatalf("graph a = %+v", g)
	}
	if g := listing.Graphs[1]; g.State != "cold" || g.Stats != nil {
		t.Fatalf("graph b = %+v", g)
	}
	getJSON(t, ts.URL+"/v1/graphs?stats=1", &listing)
	if st := listing.Graphs[0].Stats; st == nil || st.JobsServed != 1 || len(st.Jobs) != 1 || st.Jobs[0].Program != "CC" {
		t.Fatalf("graph a stats = %+v", listing.Graphs[0].Stats)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE ebv_serve_jobs_admitted_total counter",
		"ebv_serve_jobs_admitted_total 1",
		`ebv_serve_jobs_completed_total{app="CC"} 1`,
		"# TYPE ebv_serve_job_latency_seconds histogram",
		"ebv_serve_job_latency_seconds_count 1",
		`ebv_serve_job_latency_quantile_seconds{q="0.99"}`,
		`ebv_serve_messages_total{kind="wire"}`,
		"ebv_serve_cache_misses_total 1",
		"ebv_serve_graphs_open 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestServeRequestValidation checks that malformed requests are rejected
// before admission with the right status codes.
func TestServeRequestValidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    JobRequest
		status int
	}{
		{"no graph", JobRequest{App: "cc"}, http.StatusBadRequest},
		{"unknown app", JobRequest{Graph: "g", App: "nope"}, http.StatusBadRequest},
		{"negative source", JobRequest{Graph: "g", App: "sssp", Source: -1}, http.StatusBadRequest},
		{"source beyond uint32", JobRequest{Graph: "g", App: "wsssp", Source: 1 << 32}, http.StatusBadRequest},
		{"damping above 1", JobRequest{Graph: "g", App: "pr", Damping: 5}, http.StatusBadRequest},
		{"negative damping", JobRequest{Graph: "g", App: "pr", Damping: -2}, http.StatusBadRequest},
		{"negative iterations", JobRequest{Graph: "g", App: "pr", Iterations: -3}, http.StatusBadRequest},
		{"negative layers", JobRequest{Graph: "g", App: "agg", Layers: -1}, http.StatusBadRequest},
		{"negative width", JobRequest{Graph: "g", App: "cc", Width: -1}, http.StatusBadRequest},
		{"width beyond the wire cap", JobRequest{Graph: "g", App: "cc", Width: 1 << 20}, http.StatusBadRequest},
		{"negative timeout", JobRequest{Graph: "g", App: "cc", TimeoutMS: -5}, http.StatusBadRequest},
		{"unknown graph", JobRequest{Graph: "missing", App: "cc"}, http.StatusNotFound},
	}
	for _, tc := range cases {
		if status, _, msg, _ := doJob(t, ts, tc.req); status != tc.status {
			t.Errorf("%s: status = %d (%s), want %d", tc.name, status, msg, tc.status)
		}
	}
	if got := srv.metrics.admitted.Value(""); got != 0 {
		t.Fatalf("admitted = %d, want 0 (validation must happen before admission)", got)
	}
}

// TestNewRejectsBadSpecs: a spec that could never serve fails New, not
// the first request to reach it — a misspelt policy used to pass, answer
// /healthz "ok" and then pay a full prepare per request to report itself.
func TestNewRejectsBadSpecs(t *testing.T) {
	bogus := testSpec(t, "b")
	bogus.MutationPolicy = "bogus"
	negative := testSpec(t, "n")
	negative.Subgraphs = -3
	for _, tc := range []struct {
		name   string
		graphs []GraphSpec
		want   string
	}{
		{"no graphs", []GraphSpec{}, "no graphs configured"},
		{"empty name", []GraphSpec{testSpec(t, "")}, "empty name"},
		{"duplicate name", []GraphSpec{testSpec(t, "g"), testSpec(t, "g")}, `duplicate graph name "g"`},
		{"no source", []GraphSpec{{Name: "g"}}, "no source"},
		{"unknown policy", []GraphSpec{testSpec(t, "a"), bogus}, `graph "b": live: unknown mutation policy "bogus"`},
		{"negative subgraphs", []GraphSpec{testSpec(t, "a"), negative}, `graph "n": subgraph count -3 is negative`},
	} {
		srv, err := New(context.Background(), Config{Graphs: tc.graphs})
		if err == nil {
			_ = srv.Shutdown(context.Background())
			t.Errorf("%s: New succeeded", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestServeAdmissionQueueFull saturates a queue of 2 with a long-running
// job and checks that concurrent arrivals observe 429s with Retry-After
// while every admitted job still completes correctly.
func TestServeAdmissionQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueDepth: 2, MaxConcurrent: 1, MaxPerGraph: 1})

	// Warm the session up so the blocker's runtime is all supersteps.
	if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
		t.Fatalf("warm-up: %d (%s)", status, msg)
	}

	// The blocker holds the run slot (and one of the two queue slots) for
	// a few thousand supersteps.
	blocker := make(chan int, 1)
	go func() {
		status, _, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "pr", Iterations: 2500})
		blocker <- status
	}()
	waitInflight(t, srv, 1)

	// Five concurrent arrivals compete for the one remaining queue slot:
	// exactly one is admitted (and waits for the run slot), four get 429.
	wantCC := ebv.SequentialCC(testGraph(t))
	type result struct {
		status int
		jr     *JobResponse
		header http.Header
	}
	results := make(chan result, 5)
	var wg sync.WaitGroup
	for range 5 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, jr, _, hdr := doJob(t, ts, JobRequest{Graph: "g", App: "cc", Vertices: []int64{0, 7}})
			results <- result{status, jr, hdr}
		}()
	}
	wg.Wait()
	close(results)

	var ok, rejected int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
			for i, v := range []int64{0, 7} {
				if r.jr.Values[i].Value[0] != wantCC[v] {
					t.Errorf("admitted job vertex %d = %v, oracle %v", v, r.jr.Values[i].Value[0], wantCC[v])
				}
			}
		case http.StatusTooManyRequests:
			rejected++
			if ra := r.header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok != 1 || rejected != 4 {
		t.Fatalf("ok=%d rejected=%d, want 1/4", ok, rejected)
	}
	if status := <-blocker; status != http.StatusOK {
		t.Fatalf("blocker status = %d", status)
	}
	if got := srv.metrics.rejected.Value("queue_full"); got != 4 {
		t.Fatalf("rejected{queue_full} = %d, want 4", got)
	}
	if got := srv.metrics.admitted.Value(""); got != 3 {
		t.Fatalf("admitted = %d, want 3 (warm-up + blocker + one winner)", got)
	}
}

// TestServeAdmissionTable drives both request kinds through admission:
// a full queue, a draining server, and a deadline that expires while the
// request waits on a held global or per-graph run slot. The test holds
// every slot itself, so no row depends on timing. Each row runs on a
// fresh server whose graph one request of the same kind warmed.
func TestServeAdmissionTable(t *testing.T) {
	encode := func(v any) []byte {
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	endpoints := []struct {
		name, path string
		body       func(timeoutMS int) []byte
	}{
		{"jobs", "/v1/jobs", func(ms int) []byte {
			return encode(JobRequest{Graph: "g", App: "cc", TimeoutMS: ms})
		}},
		{"mutations", "/v1/graphs/g/mutations", func(ms int) []byte {
			return encode(MutationRequest{Mutations: []MutationItem{{Op: "insert", Src: 0, Dst: 1}}, TimeoutMS: ms})
		}},
	}
	// fill holds every free slot of sem and returns their release.
	fill := func(sem chan struct{}) func() {
		n := cap(sem) - len(sem)
		for range n {
			sem <- struct{}{}
		}
		return func() {
			for range n {
				<-sem
			}
		}
	}
	rows := []struct {
		name     string
		hold     func(srv *Server) (release func())
		status   int
		counter  func(m *serveMetrics) int64 // must read 1 after the row
		admitted bool                        // the request passes the queue
	}{
		{"queue full", func(srv *Server) func() { return fill(srv.queue) }, http.StatusTooManyRequests,
			func(m *serveMetrics) int64 { return m.rejected.Value("queue_full") }, false},
		{"draining", func(srv *Server) func() { srv.Drain(); return func() {} }, http.StatusServiceUnavailable,
			func(m *serveMetrics) int64 { return m.rejected.Value("draining") }, false},
		{"global slot", func(srv *Server) func() { return fill(srv.global) }, http.StatusGatewayTimeout,
			func(m *serveMetrics) int64 { return m.failed.Value("deadline") }, true},
		{"per-graph slot", func(srv *Server) func() {
			srv.cache.mu.Lock()
			e := srv.cache.entries["g"]
			srv.cache.mu.Unlock()
			return fill(e.sem)
		}, http.StatusGatewayTimeout,
			func(m *serveMetrics) int64 { return m.failed.Value("deadline") }, true},
	}
	post := func(t *testing.T, url string, body []byte) (int, http.Header) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header
	}
	for _, ep := range endpoints {
		for _, row := range rows {
			t.Run(ep.name+"/"+row.name, func(t *testing.T) {
				srv, ts := newTestServer(t, Config{MaxPerGraph: 1})
				if status, _ := post(t, ts.URL+ep.path, ep.body(0)); status != http.StatusOK {
					t.Fatalf("warm-up: %d", status)
				}
				release := row.hold(srv)
				status, hdr := post(t, ts.URL+ep.path, ep.body(100))
				release()
				if status != row.status {
					t.Fatalf("status = %d, want %d", status, row.status)
				}
				if status == http.StatusTooManyRequests {
					if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
						t.Fatalf("Retry-After = %q, want >= 1", hdr.Get("Retry-After"))
					}
				}
				if got := row.counter(srv.metrics); got != 1 {
					t.Fatalf("%s counter = %d, want 1", row.name, got)
				}
				want := int64(1) // the warm-up
				if row.admitted {
					want++
				}
				if got := srv.metrics.admitted.Value(""); got != want {
					t.Fatalf("admitted = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestServeDeadlineCancelsJob gives a 100k-iteration PageRank a 150 ms
// budget: the deadline must cancel it mid-superstep with a clean 504,
// and the deployment must stay healthy for the next job.
func TestServeDeadlineCancelsJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if status, _, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
		t.Fatal("warm-up failed")
	}

	status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "pr", Iterations: 100000, TimeoutMS: 150})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, msg)
	}
	if !strings.Contains(msg, "deadline") {
		t.Fatalf("error body %q does not name the deadline", msg)
	}
	if got := srv.metrics.failed.Value("deadline"); got != 1 {
		t.Fatalf("failed{deadline} = %d, want 1", got)
	}

	// The canceled job must not have hurt the shared deployment.
	wantCC := ebv.SequentialCC(testGraph(t))
	status, jr, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc", Vertices: []int64{42}})
	if status != http.StatusOK {
		t.Fatalf("post-cancel cc status = %d", status)
	}
	if jr.Values[0].Value[0] != wantCC[42] {
		t.Fatalf("post-cancel cc vertex 42 = %v, oracle %v", jr.Values[0].Value[0], wantCC[42])
	}
}

// TestServeEvictionDrainsInFlight forces an LRU eviction while the
// victim graph has a job in flight: the job must complete correctly, the
// victim's session must close only afterwards, and a later request must
// re-warm the graph. The test holds the victim's per-graph run slots, so
// its job stays in flight, holding the session, until the test lets it run.
func TestServeEvictionDrainsInFlight(t *testing.T) {
	const iterations = 50
	srv, ts := newTestServer(t, Config{
		Graphs:    []GraphSpec{testSpec(t, "a"), testSpec(t, "b")},
		MaxGraphs: 1, MaxConcurrent: 4, MaxPerGraph: 2, QueueDepth: 16,
	})
	if status, _, _, _ := doJob(t, ts, JobRequest{Graph: "a", App: "cc"}); status != http.StatusOK {
		t.Fatal("warm-up on a failed")
	}
	srv.cache.mu.Lock()
	victim := srv.cache.entries["a"]
	srv.cache.mu.Unlock()
	if victim == nil {
		t.Fatal("no cache entry for a")
	}
	for range cap(victim.sem) {
		victim.sem <- struct{}{}
	}
	release := sync.OnceFunc(func() {
		for range cap(victim.sem) {
			<-victim.sem
		}
	})
	defer release() // a failed check must not leave the job waiting out its timeout

	blocker := make(chan *JobResponse, 1)
	go func() {
		status, jr, msg, _ := doJob(t, ts, JobRequest{Graph: "a", App: "pr", Iterations: iterations, Vertices: []int64{0}})
		if status != http.StatusOK {
			t.Errorf("in-flight job on evicted graph: %d (%s)", status, msg)
		}
		blocker <- jr
	}()
	// The job holds a's session once it has taken its reference.
	deadline := time.Now().Add(20 * time.Second)
	for {
		srv.cache.mu.Lock()
		refs := victim.refs
		srv.cache.mu.Unlock()
		if refs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the job on a never took its reference (refs %d)", refs)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Referencing b evicts a (capacity 1) while a's job is waiting to run.
	if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "b", App: "cc"}); status != http.StatusOK {
		t.Fatalf("job on b: %d (%s)", status, msg)
	}
	if got := srv.metrics.cacheEvict.Value(""); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, err := victim.session.Run(context.Background(), &ebv.CC{}); err != nil {
		t.Fatalf("evicted session closed under its in-flight job: %v", err)
	}

	// The in-flight job survives the eviction...
	release()
	jr := <-blocker
	if jr == nil || jr.Program != "PR" || jr.Steps < iterations {
		t.Fatalf("evicted-graph job = %+v, want a full PR run", jr)
	}
	// ...and only then does the drained session close.
	deadline = time.Now().Add(20 * time.Second)
	for {
		_, err := victim.session.Run(context.Background(), &ebv.CC{})
		if err != nil {
			if !strings.Contains(err.Error(), ebv.ErrSessionClosed.Error()) {
				t.Fatalf("victim session failed with %v, want ErrSessionClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim session never closed after drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh request re-warms the evicted graph.
	if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "a", App: "cc"}); status != http.StatusOK {
		t.Fatalf("re-warm a: %d (%s)", status, msg)
	}
	if got := srv.metrics.cacheMiss.Value(""); got != 3 {
		t.Fatalf("cache misses = %d, want 3 (a, b, a-again)", got)
	}
}

// TestServeShutdownDrains starts a long job and shuts the server down
// mid-flight: admission must stop immediately, the admitted job must
// complete, and Shutdown must return once everything is closed.
func TestServeShutdownDrains(t *testing.T) {
	cfg := Config{Graphs: []GraphSpec{testSpec(t, "g")}, Logf: t.Logf}
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
		t.Fatal("warm-up failed")
	}
	blocker := make(chan int, 1)
	go func() {
		status, _, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "pr", Iterations: 2500})
		blocker <- status
	}()
	waitInflight(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// Admission stops as soon as the drain begins.
	waitDraining(t, srv)
	if status, _, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admission status = %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %v, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// The admitted job completes; Shutdown returns cleanly after it.
	if status := <-blocker; status != http.StatusOK {
		t.Fatalf("in-flight job during drain: %d", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.metrics.rejected.Value("draining"); got < 1 {
		t.Fatalf("rejected{draining} = %d, want >= 1", got)
	}
}

func waitDraining(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeGoroutineLeak runs a full open → 50 requests → shutdown cycle
// and checks the goroutine count returns to its starting point.
func TestServeGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		cfg := Config{
			Graphs:    []GraphSpec{testSpec(t, "a"), testSpec(t, "b")},
			MaxGraphs: 1, // exercise eviction paths too
			Logf:      t.Logf,
		}
		srv, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		apps := []string{"cc", "sssp", "pr"}
		graphs := []string{"a", "a", "a", "b"} // mostly a, occasional b → evictions
		for i := range 50 {
			req := JobRequest{Graph: graphs[i%len(graphs)], App: apps[i%len(apps)], Iterations: 3}
			if status, _, msg, _ := doJob(t, ts, req); status != http.StatusOK {
				t.Fatalf("request %d: %d (%s)", i, status, msg)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		ts.Close()
	}()

	// HTTP keep-alive and test goroutines take a moment to unwind.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d -> %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeWarmupFailureRetries checks that a graph whose build fails
// reports 500 to the waiting request and that the next request retries
// the warm-up rather than serving a cached failure forever.
func TestServeWarmupFailureRetries(t *testing.T) {
	attempts := 0
	spec := GraphSpec{
		Name: "flaky",
		Generate: func() (*ebv.Graph, error) {
			attempts++
			if attempts == 1 {
				return nil, fmt.Errorf("synthetic load failure")
			}
			return testGraph(t), nil
		},
		Subgraphs: 4,
	}
	_, ts := newTestServer(t, Config{Graphs: []GraphSpec{spec}})

	status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "flaky", App: "cc"})
	if status != http.StatusInternalServerError || !strings.Contains(msg, "synthetic load failure") {
		t.Fatalf("first request = %d (%s), want 500 with the load error", status, msg)
	}
	if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "flaky", App: "cc"}); status != http.StatusOK {
		t.Fatalf("retry = %d (%s), want the warm-up retried", status, msg)
	}
	if attempts != 2 {
		t.Fatalf("generate attempts = %d, want 2", attempts)
	}
}

// waitSessionClosed polls until a Run on session fails, and fails the test
// unless it fails with ErrSessionClosed within a few seconds.
func waitSessionClosed(t *testing.T, session *ebv.Session) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := session.Run(context.Background(), &ebv.CC{})
		if err != nil {
			if !errors.Is(err, ebv.ErrSessionClosed) {
				t.Fatalf("session failed with %v, want ErrSessionClosed", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("session still open")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cachedSession returns the ready session the cache holds for name.
func cachedSession(t *testing.T, srv *Server, name string) *ebv.Session {
	t.Helper()
	srv.cache.mu.Lock()
	e := srv.cache.entries[name]
	srv.cache.mu.Unlock()
	if e == nil {
		t.Fatalf("no cache entry for %s", name)
	}
	<-e.ready
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.session
}

// TestServeShutdownPastDeadlineClosesSessions calls Shutdown with an
// already-expired ctx while a long job runs, 20 times: Shutdown reports
// the deadline, the job loses its session (503) and the cached session is
// closed. Past the deadline every session closes, never a random subset.
// With no job admitted, an expired ctx is no error.
func TestServeShutdownPastDeadlineClosesSessions(t *testing.T) {
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for round := range 20 {
		srv, ts := newTestServer(t, Config{})
		if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
			t.Fatalf("round %d: warm-up: %d (%s)", round, status, msg)
		}
		session := cachedSession(t, srv, "g")
		blocker := make(chan string, 1)
		go func() {
			status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "pr", Iterations: 100000, TimeoutMS: 5000})
			blocker <- fmt.Sprintf("%d %s", status, msg)
		}()
		waitInflight(t, srv, 1)
		if err := srv.Shutdown(expired); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Shutdown = %v, want the ctx's error", round, err)
		}
		if got := <-blocker; !strings.HasPrefix(got, "503 ") || !strings.Contains(got, ebv.ErrSessionClosed.Error()) {
			t.Fatalf("round %d: in-flight job got %q, want 503 naming ErrSessionClosed", round, got)
		}
		waitSessionClosed(t, session)
		ts.Close()
	}

	srv, ts := newTestServer(t, Config{})
	if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
		t.Fatalf("warm-up: %d (%s)", status, msg)
	}
	if err := srv.Shutdown(expired); err != nil {
		t.Fatalf("Shutdown with no admitted job = %v, want nil", err)
	}
	waitSessionClosed(t, cachedSession(t, srv, "g"))
}

// TestServeLifecycleCancelClosesSessions cancels New's ctx with no
// Shutdown: the open session closes, a new job gets 503, and the
// goroutine count settles.
func TestServeLifecycleCancelClosesSessions(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv, err := New(ctx, Config{Graphs: []GraphSpec{testSpec(t, "g")}, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
			t.Fatalf("warm-up: %d (%s)", status, msg)
		}
		session := cachedSession(t, srv, "g")
		cancel()
		waitSessionClosed(t, session)
		if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusServiceUnavailable {
			t.Fatalf("job after cancel: %d (%s), want 503", status, msg)
		}
		var listing graphsResponse
		getJSON(t, ts.URL+"/v1/graphs", &listing)
		if g := listing.Graphs[0]; g.State != "cold" || srv.cache.open() != 0 {
			t.Fatalf("after cancel: graph %+v, %d open, want cold and none", g, srv.cache.open())
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d -> %d after cancel\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
