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
// exposition format the service needs: counters (plain and one-label
// vectors), gauges (stored and function-backed), and fixed-bucket
// histograms with interpolated quantile readouts. Output is byte-stable
// across scrapes of the same state: metrics render in registration order
// and label values in sorted order (the detorder rule — no map-range
// feeds the writer).

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

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a plain counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Add increments the counter by delta (negative deltas are ignored — a
// counter only goes up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) render(w io.Writer) error {
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*atomic.Int64
}

// NewCounterVec registers a one-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	cv := &CounterVec{name: name, help: help, label: label, children: make(map[string]*atomic.Int64)}
	r.register(name, cv)
	return cv
}

func (cv *CounterVec) child(value string) *atomic.Int64 {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c := cv.children[value]
	if c == nil {
		c = new(atomic.Int64)
		cv.children[value] = c
	}
	return c
}

// Add increments the child for the given label value.
func (cv *CounterVec) Add(value string, delta int64) {
	if delta > 0 {
		cv.child(value).Add(delta)
	}
}

// Inc adds one to the child for the given label value.
func (cv *CounterVec) Inc(value string) { cv.child(value).Add(1) }

// Value returns the child's current count (0 if never touched).
func (cv *CounterVec) Value(value string) int64 {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if c := cv.children[value]; c != nil {
		return c.Load()
	}
	return 0
}

// Total sums every child.
func (cv *CounterVec) Total() int64 {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	var total int64
	for _, c := range cv.children {
		total += c.Load()
	}
	return total
}

func (cv *CounterVec) render(w io.Writer) error {
	if err := writeHeader(w, cv.name, cv.help, "counter"); err != nil {
		return err
	}
	cv.mu.Lock()
	values := make([]string, 0, len(cv.children))
	for v := range cv.children {
		values = append(values, v)
	}
	counts := make(map[string]int64, len(cv.children))
	for v, c := range cv.children {
		counts[v] = c.Load()
	}
	cv.mu.Unlock()
	sort.Strings(values)
	for _, v := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", cv.name, cv.label, v, counts[v]); err != nil {
			return err
		}
	}
	return nil
}

// Gauge is a settable value metric.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
	fn         func() float64
}

// NewGauge registers a stored gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at render
// time (queue depths, cache occupancy — state someone else owns).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *Gauge {
	g := &Gauge{name: name, help: help, fn: fn}
	r.register(name, g)
	return g
}

// Set stores v (no-op on function-backed gauges).
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) render(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatValue(g.Value()))
	return err
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct {
	name, help, label string
	mu                sync.Mutex
	children          map[string]*atomic.Uint64 // float64 bits
}

// NewGaugeVec registers a one-label gauge family.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	gv := &GaugeVec{name: name, help: help, label: label, children: make(map[string]*atomic.Uint64)}
	r.register(name, gv)
	return gv
}

func (gv *GaugeVec) child(value string) *atomic.Uint64 {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	g := gv.children[value]
	if g == nil {
		g = new(atomic.Uint64)
		gv.children[value] = g
	}
	return g
}

// Set stores v for the given label value.
func (gv *GaugeVec) Set(value string, v float64) { gv.child(value).Store(math.Float64bits(v)) }

// Value returns the child's current value (0 if never set).
func (gv *GaugeVec) Value(value string) float64 {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	if g := gv.children[value]; g != nil {
		return math.Float64frombits(g.Load())
	}
	return 0
}

func (gv *GaugeVec) render(w io.Writer) error {
	if err := writeHeader(w, gv.name, gv.help, "gauge"); err != nil {
		return err
	}
	gv.mu.Lock()
	values := make([]string, 0, len(gv.children))
	for v := range gv.children {
		values = append(values, v)
	}
	vals := make(map[string]float64, len(gv.children))
	for v, g := range gv.children {
		vals[v] = math.Float64frombits(g.Load())
	}
	gv.mu.Unlock()
	sort.Strings(values)
	for _, v := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", gv.name, gv.label, v, formatValue(vals[v])); err != nil {
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
func (h *Histogram) Observe(v float64) { //ebv:nolint ctxflow the for{} is a lock-free CAS retry on the sum, not a blocking loop

	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
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

	admitted   *Counter    // ebv_serve_jobs_admitted_total
	rejected   *CounterVec // ebv_serve_jobs_rejected_total{reason}
	completed  *CounterVec // ebv_serve_jobs_completed_total{app}
	failed     *CounterVec // ebv_serve_jobs_failed_total{reason}
	latency    *Histogram  // ebv_serve_job_latency_seconds
	queueWait  *Histogram  // ebv_serve_queue_wait_seconds
	messages   *CounterVec // ebv_serve_messages_total{kind}
	cacheHits  *Counter    // ebv_serve_cache_hits_total
	cacheMiss  *Counter    // ebv_serve_cache_misses_total
	cacheEvict *Counter    // ebv_serve_cache_evictions_total

	liveMutations *CounterVec // ebv_live_mutations_total{op}
	liveBatches   *Counter    // ebv_live_batches_total
	livePatches   *Counter    // ebv_live_patch_total
	liveRebuilds  *Counter    // ebv_live_rebuild_total
	liveRF        *GaugeVec   // ebv_live_replication_factor{graph}
	liveDrift     *GaugeVec   // ebv_live_rf_drift{graph}
	liveNeedsRep  *GaugeVec   // ebv_live_repartition_needed{graph}

	queued   atomic.Int64 // admitted, waiting for a run slot
	inflight atomic.Int64 // holding a run slot
}

func newServeMetrics() *serveMetrics {
	r := NewRegistry()
	m := &serveMetrics{registry: r}
	m.admitted = r.NewCounter("ebv_serve_jobs_admitted_total",
		"Jobs that passed admission control (completed + failed + still in flight).")
	m.rejected = r.NewCounterVec("ebv_serve_jobs_rejected_total",
		"Jobs turned away at admission, by reason (queue_full, draining).", "reason")
	m.completed = r.NewCounterVec("ebv_serve_jobs_completed_total",
		"Successfully completed jobs, by application.", "app")
	m.failed = r.NewCounterVec("ebv_serve_jobs_failed_total",
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
	m.messages = r.NewCounterVec("ebv_serve_messages_total",
		"Cross-worker message rows moved by served jobs, by measurement point (emitted, wire, delivered; emitted equals wire).", "kind")
	m.cacheHits = r.NewCounter("ebv_serve_cache_hits_total",
		"Job requests that found their graph's session already open (ready or warming).")
	m.cacheMiss = r.NewCounter("ebv_serve_cache_misses_total",
		"Job requests that triggered a session warm-up.")
	m.cacheEvict = r.NewCounter("ebv_serve_cache_evictions_total",
		"Sessions evicted from the cache (drained, then closed).")
	m.liveMutations = r.NewCounterVec("ebv_live_mutations_total",
		"Edge mutations applied to live sessions, by op (insert, delete).", "op")
	m.liveBatches = r.NewCounter("ebv_live_batches_total",
		"Mutation batches applied to live sessions.")
	m.livePatches = r.NewCounter("ebv_live_patch_total",
		"Mutation batches absorbed by the incremental subgraph-patch path.")
	m.liveRebuilds = r.NewCounter("ebv_live_rebuild_total",
		"Mutation batches that fell back to a full subgraph rebuild.")
	m.liveRF = r.NewGaugeVec("ebv_live_replication_factor",
		"Current replication factor of each live graph after its latest batch.", "graph")
	m.liveDrift = r.NewGaugeVec("ebv_live_rf_drift",
		"Relative RF drift of each live graph versus its partition-time baseline.", "graph")
	m.liveNeedsRep = r.NewGaugeVec("ebv_live_repartition_needed",
		"1 when a live graph's RF drift exceeds the configured threshold, else 0.", "graph")
	return m
}
