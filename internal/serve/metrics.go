package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A hand-rolled Prometheus-text-format metric registry. The module is
// dependency-free by policy, so this implements the small slice of the
// exposition format the service needs: one Family type for counters and
// gauges (a single series or one label's worth, stored or read from a
// function), and fixed-bucket histograms with interpolated quantile
// readouts. Output is byte-stable across scrapes of the same state:
// metrics render in registration order and label values in sorted order
// (the detorder rule — no map-range feeds the writer).

// metric is one named family that can render itself.
type metric interface {
	render(w io.Writer) error
}

// Registry holds the registered metric families.
type Registry struct {
	mu      sync.Mutex
	names   map[string]bool
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("serve: metric %q registered twice", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// WriteTo renders every registered family in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, m := range metrics {
		if err := m.render(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// formatValue renders a float the way Prometheus clients do: integers
// without an exponent, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Family is one named counter or gauge family. Registered with label
// "", it holds a single series, rendered from registration on; otherwise
// it holds one series per label value, rendered once touched. Counters
// render exact integers, gauges go through formatValue.
type Family struct {
	name, help, typ, label string
	fn                     func() float64 // function-backed gauge, read at render time

	mu     sync.Mutex
	series map[string]*atomic.Uint64 // a counter's int64 count or a gauge's float64 bits
}

func (r *Registry) newFamily(name, help, typ, label string, fn func() float64) *Family {
	f := &Family{name: name, help: help, typ: typ, label: label, fn: fn, series: make(map[string]*atomic.Uint64)}
	if label == "" {
		f.series[""] = new(atomic.Uint64)
	}
	r.register(name, f)
	return f
}

// NewCounter registers a counter family keyed by label ("" for a single
// series).
func (r *Registry) NewCounter(name, help, label string) *Family {
	return r.newFamily(name, help, "counter", label, nil)
}

// NewGauge registers a stored gauge family keyed by label ("" for a
// single series).
func (r *Registry) NewGauge(name, help, label string) *Family {
	return r.newFamily(name, help, "gauge", label, nil)
}

// NewGaugeFunc registers a single-series gauge whose value is read from
// fn at render time (queue depths, cache occupancy — state someone else
// owns).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *Family {
	return r.newFamily(name, help, "gauge", "", fn)
}

func (f *Family) at(value string) *atomic.Uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[value]
	if s == nil {
		s = new(atomic.Uint64)
		f.series[value] = s
	}
	return s
}

// Add increments a counter's series by delta (negative deltas are
// ignored — a counter only goes up).
func (f *Family) Add(value string, delta int64) {
	if delta > 0 {
		f.at(value).Add(uint64(delta))
	}
}

// Inc adds one to a counter's series.
func (f *Family) Inc(value string) { f.at(value).Add(1) }

// Set stores v in a gauge's series.
func (f *Family) Set(value string, v float64) { f.at(value).Store(math.Float64bits(v)) }

// Value returns a counter series' count (0 if never touched).
func (f *Family) Value(value string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.series[value]; s != nil {
		return int64(s.Load())
	}
	return 0
}

func (f *Family) render(w io.Writer) error {
	if err := writeHeader(w, f.name, f.help, f.typ); err != nil {
		return err
	}
	if f.fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return err
	}
	type point struct {
		value string
		bits  uint64
	}
	f.mu.Lock()
	points := make([]point, 0, len(f.series))
	for v, s := range f.series {
		points = append(points, point{v, s.Load()})
	}
	f.mu.Unlock()
	sort.Slice(points, func(i, j int) bool { return points[i].value < points[j].value })
	for _, p := range points {
		text := strconv.FormatInt(int64(p.bits), 10)
		if f.typ == "gauge" {
			text = formatValue(math.Float64frombits(p.bits))
		}
		series := f.name
		if f.label != "" {
			series = fmt.Sprintf("%s{%s=%q}", f.name, f.label, p.value)
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series, text); err != nil {
			return err
		}
	}
	return nil
}

// defaultLatencyBuckets spans 1 ms … 60 s — a superstep on a prepared
// small graph lands in the first few, a cold-cache job or a saturated
// queue in the tail.
var defaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, by convention). It renders the standard cumulative
// _bucket/_sum/_count triplet.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf is implicit
	counts     []atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
	count      atomic.Int64
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds (nil selects the default latency buckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultLatencyBuckets
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(name, h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for old := h.sumBits.Load(); !h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)); old = h.sumBits.Load() {
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile approximates the q-quantile from the bucket counts by linear
// interpolation inside the bucket holding the target rank (the same
// estimate a Prometheus histogram_quantile() query would give). Returns
// 0 with no observations; the +Inf bucket reports its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // +Inf bucket: report its lower bound
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) render(w io.Writer) error {
	if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatValue(bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
	return err
}

// quantileGauges registers the interpolated p50/p95/p99 readouts of h as
// a separate gauge family `name{q="0.5"|"0.95"|"0.99"}` (a histogram
// family must not mix in summary-style quantile lines).
type quantileGauges struct {
	name, help string
	h          *Histogram
}

// NewQuantileGauges registers quantile readout lines for h under name.
func (r *Registry) NewQuantileGauges(name, help string, h *Histogram) {
	r.register(name, &quantileGauges{name: name, help: help, h: h})
}

func (qg *quantileGauges) render(w io.Writer) error {
	if err := writeHeader(w, qg.name, qg.help, "gauge"); err != nil {
		return err
	}
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		if _, err := fmt.Fprintf(w, "%s{q=%q} %s\n", qg.name, q.label, formatValue(qg.h.Quantile(q.q))); err != nil {
			return err
		}
	}
	return nil
}

// serveMetrics is the service's fixed metric set; DESIGN.md §12 documents
// each name and its meaning.
type serveMetrics struct {
	registry *Registry

	admitted   *Family    // ebv_serve_jobs_admitted_total
	rejected   *Family    // ebv_serve_jobs_rejected_total{reason}
	completed  *Family    // ebv_serve_jobs_completed_total{app}
	failed     *Family    // ebv_serve_jobs_failed_total{reason}
	latency    *Histogram // ebv_serve_job_latency_seconds
	queueWait  *Histogram // ebv_serve_queue_wait_seconds
	messages   *Family    // ebv_serve_messages_total{kind}
	cacheHits  *Family    // ebv_serve_cache_hits_total
	cacheMiss  *Family    // ebv_serve_cache_misses_total
	cacheEvict *Family    // ebv_serve_cache_evictions_total

	liveMutations *Family // ebv_live_mutations_total{op}
	liveBatches   *Family // ebv_live_batches_total
	livePatches   *Family // ebv_live_patch_total
	liveRebuilds  *Family // ebv_live_rebuild_total
	liveRF        *Family // ebv_live_replication_factor{graph}
	liveDrift     *Family // ebv_live_rf_drift{graph}
	liveNeedsRep  *Family // ebv_live_repartition_needed{graph}

	queued   atomic.Int64 // admitted, waiting for a run slot
	inflight atomic.Int64 // holding a run slot
}

func newServeMetrics() *serveMetrics {
	r := NewRegistry()
	m := &serveMetrics{registry: r}
	m.admitted = r.NewCounter("ebv_serve_jobs_admitted_total",
		"Jobs that passed admission control (completed + failed + still in flight).", "")
	m.rejected = r.NewCounter("ebv_serve_jobs_rejected_total",
		"Jobs turned away at admission, by reason (queue_full, draining).", "reason")
	m.completed = r.NewCounter("ebv_serve_jobs_completed_total",
		"Successfully completed jobs, by application.", "app")
	m.failed = r.NewCounter("ebv_serve_jobs_failed_total",
		"Admitted jobs that failed, by reason (deadline, canceled, closed, error).", "reason")
	m.latency = r.NewHistogram("ebv_serve_job_latency_seconds",
		"Admission-to-response latency of completed jobs (queue wait + execution).", nil)
	r.NewQuantileGauges("ebv_serve_job_latency_quantile_seconds",
		"Interpolated completed-job latency quantiles from the histogram buckets.", m.latency)
	m.queueWait = r.NewHistogram("ebv_serve_queue_wait_seconds",
		"Time admitted jobs spent waiting for warm-up and a run slot.", nil)
	r.NewGaugeFunc("ebv_serve_queue_depth",
		"Admitted jobs currently waiting for a run slot.",
		func() float64 { return float64(m.queued.Load()) })
	r.NewGaugeFunc("ebv_serve_jobs_inflight",
		"Jobs currently executing on a session.",
		func() float64 { return float64(m.inflight.Load()) })
	m.messages = r.NewCounter("ebv_serve_messages_total",
		"Cross-worker message rows moved by served jobs, by measurement point (emitted, wire, delivered; emitted equals wire).", "kind")
	m.cacheHits = r.NewCounter("ebv_serve_cache_hits_total",
		"Job requests that found their graph's session already open (ready or warming).", "")
	m.cacheMiss = r.NewCounter("ebv_serve_cache_misses_total",
		"Job requests that triggered a session warm-up.", "")
	m.cacheEvict = r.NewCounter("ebv_serve_cache_evictions_total",
		"Sessions evicted from the cache (each closes after its last job).", "")
	m.liveMutations = r.NewCounter("ebv_live_mutations_total",
		"Edge mutations applied to live sessions, by op (insert, delete).", "op")
	m.liveBatches = r.NewCounter("ebv_live_batches_total",
		"Mutation batches applied to live sessions.", "")
	m.livePatches = r.NewCounter("ebv_live_patch_total",
		"Mutation batches absorbed by the incremental subgraph-patch path.", "")
	m.liveRebuilds = r.NewCounter("ebv_live_rebuild_total",
		"Mutation batches that fell back to a full subgraph rebuild.", "")
	m.liveRF = r.NewGauge("ebv_live_replication_factor",
		"Current replication factor of each live graph after its latest batch.", "graph")
	m.liveDrift = r.NewGauge("ebv_live_rf_drift",
		"Relative RF drift of each live graph versus its partition-time baseline.", "graph")
	m.liveNeedsRep = r.NewGauge("ebv_live_repartition_needed",
		"1 when a live graph's RF drift exceeds the configured threshold, else 0.", "graph")
	return m
}
