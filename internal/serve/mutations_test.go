// Tests for POST /v1/graphs/{g}/mutations: JSON and binary EBVL bodies,
// the post-mutation graph serving oracle-exact results, validation and
// failure mapping, the live metric families, and the per-graph stats
// retention cap surfaced by the listing.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ebv"
)

// postMutations sends one mutation batch and decodes either outcome.
func postMutations(t *testing.T, ts *httptest.Server, graph, contentType string, body []byte) (int, *MutationResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/graphs/"+graph+"/mutations", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var mr MutationResponse
		if err := json.Unmarshal(payload, &mr); err != nil {
			t.Fatalf("bad 200 body %q: %v", payload, err)
		}
		return resp.StatusCode, &mr, ""
	}
	var er errorResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatalf("bad %d body %q: %v", resp.StatusCode, payload, err)
	}
	return resp.StatusCode, nil, er.Error
}

func jsonBatch(t *testing.T, items []MutationItem) []byte {
	t.Helper()
	payload, err := json.Marshal(MutationRequest{Mutations: items})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestServeMutationsRoundTrip streams an insert batch and a delete batch
// through the endpoint (patch verification on), then checks the mutated
// session serves CC values oracle-exact for the mutated graph, the
// listing reports the new epoch, and the ebv_live_* metric families are
// exposed.
func TestServeMutationsRoundTrip(t *testing.T) {
	spec := testSpec(t, "g")
	spec.VerifyMutations = true
	_, ts := newTestServer(t, Config{Graphs: []GraphSpec{spec}})
	g := testGraph(t)

	var inserts []MutationItem
	var insertEdges []ebv.Edge
	for i := int64(0); i < 50; i++ {
		inserts = append(inserts, MutationItem{Op: "insert", Src: i, Dst: i + 300})
		insertEdges = append(insertEdges, ebv.Edge{Src: ebv.VertexID(i), Dst: ebv.VertexID(i + 300)})
	}
	status, mr, msg := postMutations(t, ts, "g", "application/json", jsonBatch(t, inserts))
	if status != http.StatusOK {
		t.Fatalf("insert batch: %d %q", status, msg)
	}
	if mr.Epoch != 1 || mr.Inserted != 50 || mr.Deleted != 0 || mr.FullRebuild {
		t.Fatalf("insert batch result = %+v", mr)
	}
	if got := mr.PartsRebuilt + mr.PartsPatched + mr.PartsReused; got != 4 {
		t.Fatalf("parts accounting sums to %d, want 4", got)
	}

	deleteEdges := g.Edges()[:20]
	var deletes []MutationItem
	for _, e := range deleteEdges {
		deletes = append(deletes, MutationItem{Op: "delete", Src: int64(e.Src), Dst: int64(e.Dst)})
	}
	status, mr, msg = postMutations(t, ts, "g", "application/json", jsonBatch(t, deletes))
	if status != http.StatusOK {
		t.Fatalf("delete batch: %d %q", status, msg)
	}
	if mr.Epoch != 2 || mr.Deleted != 20 || mr.Inserted != 0 {
		t.Fatalf("delete batch result = %+v", mr)
	}

	// Oracle: the same multiset of edges, built from scratch.
	claims := make(map[ebv.Edge]int)
	for _, e := range deleteEdges {
		claims[e]++
	}
	var final []ebv.Edge
	for _, e := range g.Edges() {
		if claims[e] > 0 {
			claims[e]--
			continue
		}
		final = append(final, e)
	}
	final = append(final, insertEdges...)
	mutated, err := ebv.NewGraph(g.NumVertices(), final)
	if err != nil {
		t.Fatal(err)
	}
	wantCC := ebv.SequentialCC(mutated)
	probe := []int64{0, 1, 150, 300, 599}
	status, jr, _, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc", Vertices: probe})
	if status != http.StatusOK {
		t.Fatalf("cc after mutations: %d", status)
	}
	for i, vv := range jr.Values {
		if vv.Value[0] != wantCC[probe[i]] {
			t.Fatalf("cc vertex %d = %v after mutations, oracle %v", probe[i], vv.Value[0], wantCC[probe[i]])
		}
	}

	var listing graphsResponse
	getJSON(t, ts.URL+"/v1/graphs", &listing)
	if st := listing.Graphs[0]; st.Epoch != 2 || st.Edges != g.NumEdges() {
		t.Fatalf("listing after mutations = %+v (edges are the prepared snapshot's)", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE ebv_live_batches_total counter",
		"ebv_live_batches_total 2",
		`ebv_live_mutations_total{op="delete"} 20`,
		`ebv_live_mutations_total{op="insert"} 50`,
		"ebv_live_patch_total 2",
		"ebv_live_rebuild_total 0",
		`ebv_live_replication_factor{graph="g"}`,
		`ebv_live_rf_drift{graph="g"}`,
		`ebv_live_repartition_needed{graph="g"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServeMutationsBinaryBody ships the EBVL framing directly and
// checks a corrupted frame is a 400, not an applied batch.
func TestServeMutationsBinaryBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, err := ebv.EncodeMutations([]ebv.Mutation{
		{Op: ebv.OpInsert, Src: 5, Dst: 105},
		{Op: ebv.OpInsert, Src: 6, Dst: 106},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, mr, msg := postMutations(t, ts, "g", "application/x-ebv-mutations", raw)
	if status != http.StatusOK {
		t.Fatalf("binary batch: %d %q", status, msg)
	}
	if mr.Epoch != 1 || mr.Inserted != 2 {
		t.Fatalf("binary batch result = %+v", mr)
	}

	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)-1] ^= 0x01 // break the CRC
	status, _, msg = postMutations(t, ts, "g", "application/octet-stream", corrupt)
	if status != http.StatusBadRequest {
		t.Fatalf("corrupted frame: %d %q, want 400", status, msg)
	}
}

// TestServeMutationsValidation maps every rejection class to its status:
// unknown graph 404, malformed bodies and rejected batches 400 (with
// nothing applied), draining 503.
func TestServeMutationsValidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	ok := jsonBatch(t, []MutationItem{{Op: "insert", Src: 0, Dst: 1}})

	// Find a self-loop the generator did not draw, to delete.
	present := make(map[ebv.Edge]bool)
	for _, e := range testGraph(t).Edges() {
		present[e] = true
	}
	absent := ebv.Edge{Src: 0, Dst: 0}
	for present[absent] {
		absent.Src++
		absent.Dst++
	}

	if status, _, msg := postMutations(t, ts, "nope", "application/json", ok); status != http.StatusNotFound {
		t.Fatalf("unknown graph: %d %q, want 404", status, msg)
	}
	for name, body := range map[string][]byte{
		"malformed json": []byte("{"),
		"unknown op":     jsonBatch(t, []MutationItem{{Op: "upsert", Src: 0, Dst: 1}}),
		"negative id":    jsonBatch(t, []MutationItem{{Op: "insert", Src: -1, Dst: 1}}),
		"out of range":   jsonBatch(t, []MutationItem{{Op: "insert", Src: 0, Dst: 600}}),
		// 2^32 + 5 must not wrap to vertex 5 and insert (5,1).
		"beyond uint32": jsonBatch(t, []MutationItem{{Op: "insert", Src: 1<<32 + 5, Dst: 1}}),
		"absent delete": jsonBatch(t, []MutationItem{
			{Op: "insert", Src: 0, Dst: 1},
			{Op: "delete", Src: int64(absent.Src), Dst: int64(absent.Dst)},
		}),
	} {
		if status, _, msg := postMutations(t, ts, "g", "application/json", body); status != http.StatusBadRequest {
			t.Fatalf("%s: %d %q, want 400", name, status, msg)
		}
	}
	// The absent-delete batch carried a valid insert too — atomicity
	// means nothing moved.
	var listing graphsResponse
	getJSON(t, ts.URL+"/v1/graphs", &listing)
	if listing.Graphs[0].Epoch != 0 {
		t.Fatalf("rejected batches bumped the epoch to %d", listing.Graphs[0].Epoch)
	}

	srv.Drain()
	if status, _, msg := postMutations(t, ts, "g", "application/json", ok); status != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d %q, want 503", status, msg)
	}
}

// TestServeStatsRetentionCap: the session's per-job stats ring holds its
// fixed 1024 rows in the ?stats=1 listing while jobs_served keeps
// counting past it.
func TestServeStatsRetentionCap(t *testing.T) {
	const capacity = 1024
	spec := GraphSpec{Name: "g", Subgraphs: 2, Generate: func() (*ebv.Graph, error) {
		return ebv.NewGraph(3, []ebv.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	}}
	_, ts := newTestServer(t, Config{Graphs: []GraphSpec{spec}})
	for i := 0; i < capacity+2; i++ {
		if status, _, msg, _ := doJob(t, ts, JobRequest{Graph: "g", App: "cc"}); status != http.StatusOK {
			t.Fatalf("job %d: %d %q", i, status, msg)
		}
	}
	var listing graphsResponse
	getJSON(t, ts.URL+"/v1/graphs?stats=1", &listing)
	g := listing.Graphs[0]
	if g.JobsServed != capacity+2 {
		t.Fatalf("jobs_served = %d, want %d", g.JobsServed, capacity+2)
	}
	st := g.Stats
	if st == nil {
		t.Fatal("?stats=1 listing has no stats")
	}
	if st.JobsServed != capacity+2 || st.JobsRetained != capacity || st.JobsRetention != capacity {
		t.Fatalf("stats = %d served / %d retained / retention %d, want %d / %d / %d",
			st.JobsServed, st.JobsRetained, st.JobsRetention, capacity+2, capacity, capacity)
	}
	if len(st.Jobs) != capacity || st.Jobs[0].Job != 3 || st.Jobs[capacity-1].Job != capacity+2 {
		t.Fatalf("retained %d jobs, want %d from job 3 to job %d", len(st.Jobs), capacity, capacity+2)
	}
}
