package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"ebv"
	"ebv/internal/transport"
)

// JobRequest is the POST /v1/jobs body: one graph query, naming the
// application through the app registry (ebv.ProgramByName: CC, PR, SSSP,
// WSSSP, Aggregate — case-insensitive) plus its parameters. Zero values
// select each program's defaults.
type JobRequest struct {
	// Graph names one of the server's configured graphs.
	Graph string `json:"graph"`
	// App selects the program from the shared registry.
	App string `json:"app"`
	// Iterations is PR's iteration count (0 = default 10).
	Iterations int `json:"iterations,omitempty"`
	// Damping is PR's damping factor (0 = default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// Source is the SSSP/WSSSP source vertex.
	Source int64 `json:"source,omitempty"`
	// Layers is Aggregate's layer count (0 = default 2).
	Layers int `json:"layers,omitempty"`
	// Width is the per-vertex value width (0 = the graph session's
	// default, i.e. 1).
	Width int `json:"width,omitempty"`
	// MaxSteps caps the job's supersteps (0 = engine default).
	MaxSteps int `json:"max_steps,omitempty"`
	// Combine enables the program's declared message combiner for this
	// job (jobs on a Combine-configured graph combine regardless).
	Combine bool `json:"combine,omitempty"`
	// TimeoutMS bounds the job end to end — queue wait, warm-up wait and
	// every superstep (the deadline propagates as context through the
	// engine). 0 selects the server default; values above the server cap
	// are clamped to it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Vertices asks for specific vertices' result values in the
	// response (the full value matrix is never returned over HTTP).
	Vertices []int64 `json:"vertices,omitempty"`
}

// runOptions builds the per-job session options.
func (jr *JobRequest) runOptions() []ebv.RunOption {
	var opts []ebv.RunOption
	if jr.Width > 0 {
		opts = append(opts, ebv.WithValueWidth(jr.Width))
	}
	if jr.MaxSteps > 0 {
		opts = append(opts, ebv.WithMaxSteps(jr.MaxSteps))
	}
	if jr.Combine {
		opts = append(opts, ebv.AutoCombine(true))
	}
	return opts
}

// validate rejects malformed parameters before admission so a bad
// request never consumes a queue slot, and resolves the request's app
// through the shared registry.
func (jr *JobRequest) validate() (ebv.Program, error) {
	if jr.Graph == "" {
		return nil, fmt.Errorf("serve: job request has no graph")
	}
	if jr.Width < 0 || jr.Width > transport.MaxValueWidth {
		return nil, fmt.Errorf("serve: width %d invalid: must be in [1,%d] (or 0 for the default)",
			jr.Width, transport.MaxValueWidth)
	}
	if jr.MaxSteps < 0 {
		return nil, fmt.Errorf("serve: max_steps %d invalid: must be >= 0", jr.MaxSteps)
	}
	if jr.TimeoutMS < 0 {
		return nil, fmt.Errorf("serve: timeout_ms %d invalid: must be >= 0", jr.TimeoutMS)
	}
	return ebv.ProgramByName(jr.App, ebv.ProgramParams{
		Iterations: jr.Iterations, Damping: jr.Damping, Source: jr.Source, Layers: jr.Layers,
	})
}

// VertexValue is one requested vertex's result row.
type VertexValue struct {
	Vertex int64 `json:"vertex"`
	// Covered reports whether any subgraph computed this vertex (an
	// uncovered or out-of-range vertex has no value).
	Covered bool `json:"covered"`
	// Value is the vertex's value row (width columns), nil if uncovered.
	Value Row `json:"value,omitempty"`
}

// Row is a value row on the wire: a JSON array of numbers, with each entry
// JSON numbers cannot carry written as the string "+Inf", "-Inf" or "NaN"
// (an SSSP distance to a vertex the source cannot reach is +Inf). A finite
// row encodes exactly as a []float64 does.
type Row []float64

var nonFinite = map[string]float64{"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "NaN": math.NaN()}

// MarshalJSON implements json.Marshaler.
func (r Row) MarshalJSON() ([]byte, error) {
	if !slices.ContainsFunc(r, func(x float64) bool { return math.IsInf(x, 0) || math.IsNaN(x) }) {
		return json.Marshal([]float64(r))
	}
	cells := make([]any, len(r))
	for i, x := range r {
		switch {
		case math.IsInf(x, 1):
			cells[i] = "+Inf"
		case math.IsInf(x, -1):
			cells[i] = "-Inf"
		case math.IsNaN(x):
			cells[i] = "NaN"
		default:
			cells[i] = x
		}
	}
	return json.Marshal(cells)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Row) UnmarshalJSON(data []byte) error {
	if json.Unmarshal(data, (*[]float64)(r)) == nil {
		return nil // a finite row
	}
	var cells []any
	if err := json.Unmarshal(data, &cells); err != nil {
		return err
	}
	row := make(Row, len(cells))
	for i, c := range cells {
		switch c := c.(type) {
		case float64:
			row[i] = c
		case string:
			x, ok := nonFinite[c]
			if !ok {
				return fmt.Errorf("serve: value %q is neither a number nor +Inf, -Inf or NaN", c)
			}
			row[i] = x
		default:
			return fmt.Errorf("serve: value %v is neither a number nor +Inf, -Inf or NaN", c)
		}
	}
	*r = row
	return nil
}

// JobResponse is the POST /v1/jobs success body.
type JobResponse struct {
	Graph string `json:"graph"`
	// Job is the session-scoped job number on the graph's session.
	Job        int    `json:"job"`
	Program    string `json:"program"`
	Steps      int    `json:"steps"`
	ValueWidth int    `json:"value_width"`
	// RunTimeMS is the execution time inside the session (supersteps
	// only); QueueTimeMS is admission-to-execution wait (queue + warm-up
	// + run-slot wait); TotalTimeMS is their sum — what the client saw.
	RunTimeMS   float64 `json:"run_time_ms"`
	QueueTimeMS float64 `json:"queue_time_ms"`
	TotalTimeMS float64 `json:"total_time_ms"`
	// Messages is the job's emitted/wire/delivered row accounting.
	Messages ebv.MessageCounts `json:"message_counts"`
	// Values holds the requested vertices' result rows, in request
	// order.
	Values []VertexValue `json:"values,omitempty"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

// buildResponse assembles the success body from a completed job.
func buildResponse(req *JobRequest, jr *ebv.JobResult, queueWait, total float64) *JobResponse {
	resp := &JobResponse{
		Graph:       req.Graph,
		Job:         jr.Job,
		Program:     jr.Program,
		Steps:       jr.Steps,
		ValueWidth:  jr.ValueWidth,
		RunTimeMS:   1000 * jr.RunTime.Seconds(),
		QueueTimeMS: queueWait,
		TotalTimeMS: total,
		Messages:    jr.Counts,
	}
	for _, v := range req.Vertices {
		vv := VertexValue{Vertex: v}
		if v >= 0 && v <= math.MaxUint32 {
			if row, ok := jr.BSP.Row(ebv.VertexID(v)); ok {
				vv.Covered = true
				vv.Value = append([]float64(nil), row...)
			}
		}
		resp.Values = append(resp.Values, vv)
	}
	return resp
}
