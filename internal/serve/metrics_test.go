// Unit tests for the hand-rolled Prometheus-text registry: exact
// exposition-format output, histogram bucket/quantile math, and the
// registration invariants.
package serve

import (
	"strings"
	"testing"
	"time"
)

// TestRegistryExposition renders one of each family and checks the exact
// text, including deterministic label ordering: a labelled family's
// series render sorted, whatever order they were set in, and a labelled
// family no one touched renders its header lines only.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Total jobs.", "")
	c.Add("", 3)
	cv := r.NewCounter("errs_total", "Errors by kind.", "kind")
	cv.Inc("zeta")
	cv.Add("alpha", 2)
	g := r.NewGauge("depth", "Queue depth.", "")
	g.Set("", 1.5)
	r.NewGaugeFunc("open", "Open graphs.", func() float64 { return 2 })
	gv := r.NewGauge("rf", "RF by graph.", "graph")
	gv.Set("zeta", 1.25)
	gv.Set("alpha", 3)
	r.NewCounter("idle_total", "Never touched.", "why")
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Total jobs.
# TYPE jobs_total counter
jobs_total 3
# HELP errs_total Errors by kind.
# TYPE errs_total counter
errs_total{kind="alpha"} 2
errs_total{kind="zeta"} 1
# HELP depth Queue depth.
# TYPE depth gauge
depth 1.5
# HELP open Open graphs.
# TYPE open gauge
open 2
# HELP rf RF by graph.
# TYPE rf gauge
rf{graph="alpha"} 3
rf{graph="zeta"} 1.25
# HELP idle_total Never touched.
# TYPE idle_total counter
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.55
lat_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if n != int64(sb.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, sb.Len())
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "h", "")
	c.Add("", 5)
	c.Add("", -3) // ignored: counters only go up
	c.Inc("")
	if got := c.Value(""); got != 6 {
		t.Fatalf("value = %d, want 6", got)
	}
	cv := r.NewCounter("cv", "h", "l")
	cv.Add("x", -1)
	if got := cv.Value("x"); got != 0 {
		t.Fatalf("vec value = %d, want 0", got)
	}
	if got := cv.Value("never"); got != 0 {
		t.Fatalf("untouched child = %d, want 0", got)
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "h", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup", "h", "")
}

// TestHistogramQuantile checks the bucket-interpolation against known
// distributions.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 10 observations uniformly inside (1, 2]: the median interpolates to
	// the middle of that bucket.
	for range 10 {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Fatalf("p50 = %v, want 1.5", got)
	}
	if got := h.Quantile(1.0); got != 2.0 {
		t.Fatalf("p100 = %v, want 2.0 (bucket upper bound)", got)
	}
	// An observation beyond the last bound lands in +Inf and reports the
	// last finite bound rather than infinity.
	h.Observe(100)
	if got := h.Quantile(0.999); got != 4 {
		t.Fatalf("tail quantile = %v, want 4 (last finite bound)", got)
	}
	if h.Count() != 11 {
		t.Fatalf("count = %d", h.Count())
	}

	h2 := r.NewHistogram("h2", "h", nil) // default latency buckets
	h2.ObserveDuration(3 * time.Millisecond)
	if h2.Count() != 1 || h2.Sum() != 0.003 {
		t.Fatalf("duration observe: count %d sum %v", h2.Count(), h2.Sum())
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {3, "3"}, {-2, "-2"}, {1.5, "1.5"}, {0.25, "0.25"},
	}
	for _, tc := range cases {
		if got := formatValue(tc.in); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
