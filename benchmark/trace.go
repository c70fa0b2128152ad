package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// The tracer records spans from outside the system under test: the
// benchmark wraps each call into a layer's public function, and where a
// call returns its own stage timings (bsp.Result's comp/comm/sync, a serve
// response's queue/run split, Prepared()'s stage times) it adds them as
// synthesized children of the call's span. Spans stay in memory until the
// run ends. A nil *tracer is tracing off: every method is a no-op, so the
// end-to-end metrics are measured on the same code path without recording.

// span is one timed interval at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Lane separates concurrent callers in the trace view (client index).
	Lane  int           `json:"lane"`
	Start time.Duration `json:"start_ns"` // since the tracer's origin
	End   time.Duration `json:"end_ns"`
	// Synth marks a child built from timings the call returned rather
	// than from the benchmark's own clock.
	Synth bool `json:"synth,omitempty"`
}

type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
	// observed holds numbers read at the same boundaries as the spans:
	// counts and timings a wrapped call returned.
	observed map[string][]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), observed: make(map[string][]float64)}
}

// observe records one value under name.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observed[name] = append(t.observed[name], v)
	t.mu.Unlock()
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, layer, name string, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Lane: lane, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// synth adds children of parent (which must already be ended) laid end to
// end from the parent's start, from durations the wrapped call returned.
// They are clipped to the parent so a returned timing can never make
// self time negative.
func (t *tracer) synth(parent int, parts ...synthPart) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	at := p.Start
	for _, part := range parts {
		if part.dur <= 0 {
			continue
		}
		end := min(at+part.dur, p.End)
		if end <= at {
			break
		}
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: part.layer, Name: part.name,
			Lane: p.Lane, Start: at, End: end, Synth: true})
		at = end
	}
}

type synthPart struct {
	layer, name string
	dur         time.Duration
}

// durations returns every measured (not synthesized) span's duration in
// seconds, keyed by span name.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End >= 0 && !s.Synth {
			out[s.Name] = append(out[s.Name], (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time of every span in
// the trees rooted at spans named one of roots: a span's duration minus
// the part of it its children cover. Children of concurrent callers
// overlap; each instant of the parent is then split equally among the
// children active in it, and a child's whole subtree is scaled by the
// share it was given, so the layer totals always add up to the roots'
// wall time (also returned) instead of to the callers' summed time.
func (t *tracer) selfTimes(roots ...string) (byLayer map[string]time.Duration, rootTotal time.Duration) {
	byLayer = make(map[string]time.Duration)
	if t == nil {
		return byLayer, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	var walk func(id int, scale float64)
	walk = func(id int, scale float64) {
		s := t.spans[id]
		kids := children[id]
		// Sweep the children's clipped intervals: between two consecutive
		// boundaries the set of active children is constant.
		type iv struct{ lo, hi time.Duration }
		ivs := make([]iv, len(kids))
		var cuts []time.Duration
		for i, c := range kids {
			cs := t.spans[c]
			ivs[i] = iv{max(cs.Start, s.Start), min(cs.End, s.End)}
			cuts = append(cuts, ivs[i].lo, ivs[i].hi)
		}
		slices.Sort(cuts)
		share := make([]float64, len(kids))
		var covered time.Duration
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			if hi <= lo {
				continue
			}
			var active []int
			for k, v := range ivs {
				if v.lo <= lo && hi <= v.hi {
					active = append(active, k)
				}
			}
			if len(active) == 0 {
				continue
			}
			covered += hi - lo
			for _, k := range active {
				share[k] += float64(hi-lo) / float64(len(active))
			}
		}
		byLayer[s.Layer] += time.Duration(float64(s.End-s.Start-covered) * scale)
		for k, c := range kids {
			if d := ivs[k].hi - ivs[k].lo; d > 0 {
				walk(c, scale*share[k]/float64(d))
			}
		}
	}
	for _, s := range t.spans {
		if s.Parent == -1 && s.End >= 0 && slices.Contains(roots, s.Name) {
			rootTotal += s.End - s.Start
			walk(s.ID, 1)
		}
	}
	return byLayer, rootTotal
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event file.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": t.workload, "synth": s.Synth},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printSelfTable prints the per-layer self-time table of the setup and
// cycle trees and returns how far the layer total is from the roots'
// total, as a share of the latter.
func (t *tracer) printSelfTable(w io.Writer) float64 {
	byLayer, total := t.selfTimes("setup", "cycle")
	layers := make([]string, 0, len(byLayer))
	var sum time.Duration
	for l, d := range byLayer {
		layers = append(layers, l)
		sum += d
	}
	slices.SortFunc(layers, func(a, b string) int { return int(byLayer[b] - byLayer[a]) })
	fmt.Fprintf(w, "layer self time over traced setup+cycle spans (%s)\n", t.workload)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(byLayer[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-10s %10.4f s  %5.1f %%\n", l, byLayer[l].Seconds(), share)
	}
	fmt.Fprintf(w, "  %-10s %10.4f s  (roots %.4f s)\n", "total", sum.Seconds(), total.Seconds())
	if total == 0 {
		return 0
	}
	return float64((sum - total).Abs()) / float64(total)
}
