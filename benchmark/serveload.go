package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ebv"
	"ebv/internal/apps"
	"ebv/internal/graph"
	"ebv/internal/rng"
	"ebv/internal/serve"
)

var errNotOK = errors.New("non-2xx response")

// serveClients is the closed loop's client count: one per core of the
// sandbox, so the load generator never outnumbers the CPUs it shares
// with the server.
const serveClients = 2

// serveSample is how many vertices' values each timed job asks for.
const serveSample = 16

// serveJob is one entry of the fixed batch a cycle posts.
type serveJob struct {
	graph    int    // index into inputs.graphs
	app      string // CC, PR or SSSP: the apps.<app>.job_s row
	req      serve.JobRequest
	body     []byte
	oracle   *oracle
	checkAll bool // response must equal the oracle (the graph is not written to)
}

// serveInputsData is serve-mixed's generated traffic: the job batch, the
// mutation stream and the probe jobs that warm each graph.
type serveInputsData struct {
	jobs   []serveJob
	probes []serveJob // one CC job per graph, posted by open
	muts   *mutationStream
	ref    map[int]uint64 // job index → sample checksum every cycle must repeat
}

// serveInputs generates the two resident graphs (graphs[0] is the
// power-law one, which is also the graph being mutated) and a seeded
// batch of jobs in the mix cc:5, pr:3, sssp:2 on each.
func serveInputs(dir string, seed uint64, scale float64) (*inputs, error) {
	pl, err := powerLawInput(dir, "pl", seed, scaled(servePLVertices, scale, 200), scaled(servePLEdges, scale, 2000))
	if err != nil {
		return nil, err
	}
	road, err := roadInput(dir, "road", seed+1, scaledSide(serveRoadSide, scale, 12))
	if err != nil {
		return nil, err
	}
	hub := hubVertex(pl.oracle)
	in := newInputs(pl, appCC(), appPR(), appSSSP(hub))
	in.graphs = append(in.graphs, road)
	d := &serveInputsData{
		muts: newMutationStream(pl.oracle, seed, scaled(serveBatchEdges, scale, 10)),
		ref:  make(map[int]uint64),
	}
	in.serve = d

	sources := []graph.VertexID{hub, 0}
	type kind struct {
		app    string
		oracle func(g *graph.Graph, gi int) *oracle
		req    func(gi int) serve.JobRequest
	}
	kinds := map[string]kind{
		"cc": {"CC",
			func(g *graph.Graph, _ int) *oracle { return &oracle{want: apps.SequentialCC(g), width: 1} },
			func(int) serve.JobRequest { return serve.JobRequest{App: "CC", Combine: true} }},
		"pr": {"PR",
			func(g *graph.Graph, _ int) *oracle {
				return &oracle{want: apps.SequentialPageRank(g, 10, 0), width: 1, tol: 1e-9}
			},
			func(int) serve.JobRequest { return serve.JobRequest{App: "PR", Iterations: 10, Combine: true} }},
		"sssp": {"SSSP",
			func(g *graph.Graph, gi int) *oracle {
				return &oracle{want: apps.SequentialSSSP(g, sources[gi]), width: 1}
			},
			func(gi int) serve.JobRequest {
				return serve.JobRequest{App: "SSSP", Source: int64(sources[gi]), Combine: true}
			}},
	}
	// One oracle and one vertex sample per (graph, app). An SSSP sample
	// holds only reachable vertices: +Inf has no JSON encoding.
	type slot struct {
		gi   int
		name string
	}
	oracles := make(map[slot]*oracle)
	samples := make(map[slot][]int64)
	for gi, g := range in.graphs {
		for name, k := range kinds {
			o := k.oracle(g.oracle, gi)
			key := slot{gi, name}
			oracles[key] = o
			samples[key] = sampleVertices(g.oracle, seed+uint64(gi), serveSample, func(v int) bool {
				return g.oracle.Degree(graph.VertexID(v)) > 0 && !math.IsInf(o.want[v], 0)
			})
		}
	}
	mk := func(sl slot) (serveJob, error) {
		req := kinds[sl.name].req(sl.gi)
		req.Graph = in.graphs[sl.gi].Name
		req.Vertices = samples[sl]
		body, err := json.Marshal(req)
		return serveJob{graph: sl.gi, app: kinds[sl.name].app, req: req, body: body, oracle: oracles[sl], checkAll: sl.gi != 0}, err
	}

	// Every graph gets the same share of the batch in the same mix, so the
	// work in a cycle does not depend on the seed; the seed only orders it.
	mix := []string{"cc", "cc", "cc", "cc", "cc", "pr", "pr", "pr", "sssp", "sssp"}
	var slots []slot
	for gi := range in.graphs {
		for i := 0; i < serveBatchJobs/len(in.graphs); i++ {
			slots = append(slots, slot{gi, mix[i%len(mix)]})
		}
	}
	rng.New(seed).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for _, sl := range slots {
		j, err := mk(sl)
		if err != nil {
			return nil, err
		}
		d.jobs = append(d.jobs, j)
	}
	for gi := range in.graphs {
		p, err := mk(slot{gi, "cc"})
		if err != nil {
			return nil, err
		}
		p.checkAll = true // a probe runs before the first mutation
		d.probes = append(d.probes, p)
	}
	return in, nil
}

type serveSystem struct {
	in      *inputs
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	base    string
	rf      float64
	applied int      // mutation batches posted since open
	probes  []jobOut // verified by the first full check
}

// openServe is serve.New on a real loopback http.Server plus one probe
// job per graph: sessions warm lazily on first reference, so a graph is
// ready for its first job only once a job on it has returned.
func openServe(ctx context.Context, in *inputs, tr *tracer, parent int) (system, error) {
	specs := make([]serve.GraphSpec, len(in.graphs))
	for i, g := range in.graphs {
		specs[i] = serve.GraphSpec{Name: g.Name, Path: g.Path, Undirected: g.Undirected, Subgraphs: K, Combine: true}
	}
	sp := tr.begin(parent, "serve", "serve.New", 0)
	srv, err := serve.New(ctx, serve.Config{Graphs: specs, MaxGraphs: len(specs)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return nil, err
	}
	s := &serveSystem{
		in: in, srv: srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		base:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	tr.end(sp)

	// Warm both graphs at once, one client each.
	sp = tr.begin(parent, "serve", "serve.warm", 0)
	s.probes = make([]jobOut, len(in.serve.probes))
	var wg sync.WaitGroup
	for i := range in.serve.probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.probes[i] = s.postJob(ctx, nil, -1, i, &in.serve.probes[i], -1-i)
		}()
	}
	wg.Wait()
	tr.end(sp)
	for _, p := range s.probes {
		if p.err != nil {
			_ = s.close()
			return nil, fmt.Errorf("warm %s: %w", p.key, p.err)
		}
	}
	if err := s.readState(ctx, tr, sp); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// readState reads the power-law graph's row of GET /v1/graphs?stats=1 the
// way an operator would: its replication factor, and the stage times of
// its warm-up, which — being the larger graph's — set how long the warm
// span took and are hung under it.
func (s *serveSystem) readState(ctx context.Context, tr *tracer, warm int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/graphs?stats=1", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Graphs []struct {
			Name              string            `json:"name"`
			ReplicationFactor float64           `json:"replication_factor"`
			Stats             *ebv.SessionStats `json:"stats"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("GET /v1/graphs: %w", err)
	}
	for _, g := range body.Graphs {
		if g.Name == s.in.graphs[0].Name && g.Stats != nil {
			s.rf = g.ReplicationFactor
			tr.synth(warm,
				synthPart{"graph", "graph.parse", g.Stats.LoadTime},
				synthPart{"core", "core.partition", g.Stats.PartitionTime},
				synthPart{"bsp", "bsp.build", g.Stats.BuildTime})
		}
	}
	if s.rf == 0 {
		return fmt.Errorf("GET /v1/graphs: no replication factor for %s", s.in.graphs[0].Name)
	}
	return nil
}

// post sends one JSON body and decodes a 200 response into out.
func (s *serveSystem) post(ctx context.Context, path string, body []byte, out any) (status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%w: %d %s", errNotOK, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// postJob posts one job and, traced, splits its round trip into the
// queue wait and run time the response reports; the rest is HTTP, JSON
// and admission.
func (s *serveSystem) postJob(ctx context.Context, tr *tracer, parent, lane int, j *serveJob, index int) jobOut {
	sp := tr.begin(parent, "serve", "serve.job", lane)
	t0 := time.Now()
	var resp serve.JobResponse
	status, err := s.post(ctx, "/v1/jobs", j.body, &resp)
	rtt := time.Since(t0)
	tr.end(sp)
	out := jobOut{key: fmt.Sprintf("%d:%s/%s", index, s.in.graphs[j.graph].Name, j.app), err: err}
	if status == http.StatusTooManyRequests {
		tr.observe("serve.rejected", 1)
	}
	if err != nil {
		return out
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	tr.synth(sp, synthPart{"serve", "serve.queue", ms(resp.QueueTimeMS)}, synthPart{"bsp", "bsp.run", ms(resp.RunTimeMS)})
	tr.observe("serve.queue_s", resp.QueueTimeMS/1000)
	tr.observe("serve.run_s", resp.RunTimeMS/1000)
	tr.observe("serve.http_overhead_s", rtt.Seconds()-resp.TotalTimeMS/1000)
	tr.observe("apps."+j.app, rtt.Seconds())
	if resp.Steps < 1 || len(resp.Values) != len(j.req.Vertices) {
		out.err = fmt.Errorf("%s: %d steps, %d of %d values", out.key, resp.Steps, len(resp.Values), len(j.req.Vertices))
		return out
	}
	out.sample = resp.Values
	return out
}

// cycle posts the fixed batch from serveClients closed-loop clients (each
// sends its next job only after the previous reply); client 1 first
// posts the cycle's mutation batch, so a write lands beside the reads.
func (s *serveSystem) cycle(ctx context.Context, tr *tracer, parent int) []jobOut {
	d := s.in.serve
	out := make([]jobOut, len(d.jobs)+1) // the batch, then the mutation
	batch := s.applied
	s.applied++
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c == 1 {
				out[len(d.jobs)] = s.postMutations(ctx, tr, parent, c, batch)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.jobs) {
					return
				}
				out[i] = s.postJob(ctx, tr, parent, c, &d.jobs[i], i)
			}
		}()
	}
	wg.Wait()
	return out
}

func (s *serveSystem) postMutations(ctx context.Context, tr *tracer, parent, lane, batch int) jobOut {
	out := jobOut{key: "mutations"}
	muts, err := s.in.serve.muts.batch(batch)
	if err != nil {
		out.err = err
		return out
	}
	req := serve.MutationRequest{Mutations: make([]serve.MutationItem, len(muts))}
	for i, m := range muts {
		op := "delete"
		if m.insert {
			op = "insert"
		}
		req.Mutations[i] = serve.MutationItem{Op: op, Src: int64(m.src), Dst: int64(m.dst)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	sp := tr.begin(parent, "live", "live.apply", lane)
	var resp serve.MutationResponse
	status, err := s.post(ctx, "/v1/graphs/"+s.in.graphs[0].Name+"/mutations", body, &resp)
	took := tr.end(sp)
	if status == http.StatusTooManyRequests {
		tr.observe("serve.rejected", 1)
	}
	if err != nil {
		out.err = err
		return out
	}
	tr.synth(sp, synthPart{"live", "live.patch", resp.PatchTime})
	tr.observe("live.apply_s", took.Seconds())
	tr.observe("live.parts_patched", float64(resp.PartsPatched))
	tr.observe("live.parts_rebuilt", float64(resp.PartsRebuilt))
	tr.observe("live.rf_drift", resp.Drift)
	if resp.Inserted+resp.Deleted != len(muts) {
		out.err = fmt.Errorf("mutation batch %d: applied %d of %d", batch, resp.Inserted+resp.Deleted, len(muts))
	}
	return out
}

// check verifies a cycle. Jobs on the road graph must equal the oracle
// and repeat their checksum; jobs on the power-law graph race with the
// writes, so only their status and shape are checked here and the graph
// is verified by finish. The open's probes ride on the first full check.
func (s *serveSystem) check(jobs []jobOut, full bool) (attempted, failed int) {
	d := s.in.serve
	verify := func(j *jobOut, spec *serveJob, index int) {
		attempted++
		if j.err != nil {
			failed++
			return
		}
		if !spec.checkAll {
			return
		}
		for _, sv := range j.sample {
			if !sv.Covered || !spec.oracle.matches(int(sv.Vertex), sv.Value) {
				failed++
				return
			}
		}
		sum := sampleChecksum(j.sample)
		if ref, seen := d.ref[index]; !seen {
			d.ref[index] = sum
		} else if ref != sum {
			failed++
		}
	}
	if full {
		for i := range s.probes {
			verify(&s.probes[i], &d.probes[i], -1-i)
		}
		s.probes = nil
	}
	for i := range d.jobs {
		verify(&jobs[i], &d.jobs[i], i)
	}
	attempted++
	if jobs[len(d.jobs)].err != nil {
		failed++
	}
	return attempted, failed
}

// finish checks the mutated graph: a CC job over every vertex must equal
// SequentialCC on the benchmark's own replay of the batches it posted.
func (s *serveSystem) finish(ctx context.Context) (attempted, failed int) {
	g, err := s.in.serve.muts.replay(s.applied)
	if err != nil {
		return 1, 1
	}
	all := make([]int64, 0, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) > 0 {
			all = append(all, int64(v))
		}
	}
	// The request body is capped at 1 MB: ask in slices.
	o := &oracle{want: apps.SequentialCC(g), width: 1}
	const slice = 50_000
	for lo := 0; lo < len(all); lo += slice {
		attempted++
		req := serve.JobRequest{Graph: s.in.graphs[0].Name, App: "CC", Combine: true, Vertices: all[lo:min(lo+slice, len(all))]}
		body, err := json.Marshal(req)
		if err != nil {
			failed++
			continue
		}
		var resp serve.JobResponse
		if _, err := s.post(ctx, "/v1/jobs", body, &resp); err != nil || len(resp.Values) != len(req.Vertices) {
			failed++
			continue
		}
		for _, v := range resp.Values {
			if !v.Covered || !o.matches(int(v.Vertex), v.Value) {
				failed++
				break
			}
		}
	}
	return attempted, failed
}

func (s *serveSystem) replicationFactor() float64 { return s.rf }

func (s *serveSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
