package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.1, 2.0, 1.9, 2.3, 2.2, 2.0, 1.95, 2.05, 2.4, 1.85}, 1.9375, 2.225},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles([]float64{3}); q1 != 3 || q3 != 3 {
		t.Errorf("one sample: quartiles = %v, %v", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if pct, v := tailPercentile(xs[:10]); pct != 0 || v != 0 {
		t.Errorf("10 samples support no tail percentile, got p%v=%v", pct, v)
	}
	// 11 samples: only the smallest has ten beyond it.
	if pct, v := tailPercentile(xs[:11]); !near(pct, 100.0/11) || v != 90 {
		t.Errorf("11 samples: p%v=%v", pct, v)
	}
	if pct, v := tailPercentile(xs); !near(pct, 90) || v != 90 {
		t.Errorf("100 samples: p%v=%v, want p90=90", pct, v)
	}
}

func TestSpreadAndWorsening(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "s", "lower")
	if !near(s.Value, 5.5) || s.N != 10 || !near(s.spread(), 5.5/5.5) {
		t.Errorf("summary %+v spread %v", s, s.spread())
	}
	if got := worsening(2, 2.2, "lower"); !near(got, 0.1) {
		t.Errorf("lower-is-better 2→2.2: %v", got)
	}
	if got := worsening(2, 2.2, "higher"); !near(got, -0.1) {
		t.Errorf("higher-is-better 2→2.2: %v", got)
	}
	if got := worsening(0, 0, "lower"); got != 0 {
		t.Errorf("0→0: %v", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := func(v float64) summary { return summary{Value: v, Q1: v * 0.8, Q3: v * 1.2} }
	for _, tc := range []struct {
		name   string
		a, b   summary
		better string
		bound  float64
		want   string
	}{
		{"within bound", tight(1), tight(1.09), "lower", 0.1, verdictOK},
		{"improved", tight(1), tight(0.5), "lower", 0.1, verdictOK},
		{"past bound", tight(1), tight(1.11), "lower", 0.1, verdictRegressed},
		{"higher is better", tight(100), tight(80), "higher", 0.1, verdictRegressed},
		{"spread hides it", noisy(1), tight(1.5), "lower", 0.1, verdictUnresolved},
		{"exact count worse inside the bound", exact(2.2, "ratio", "lower"), exact(2.21, "ratio", "lower"), "lower", 0.02, verdictRegressed},
		{"exact count better", exact(2.2, "ratio", "lower"), exact(2.19, "ratio", "lower"), "lower", 0.02, verdictImproved},
		{"exact count same", exact(2.2, "ratio", "lower"), exact(2.2, "ratio", "lower"), "lower", 0.02, verdictOK},
	} {
		if got, _ := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Self times must add up to the roots' wall time whether children run one
// after another or side by side.
func TestSelfTimesSumToRoots(t *testing.T) {
	tr := newTracer("test")
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	add := func(parent int, layer, name string, start, end int) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Layer: layer, Name: name, Start: ms(start), End: ms(end)})
		return len(tr.spans) - 1
	}
	// Sequential: root 0–100, children 10–40 and 40–90; grandchild 50–60.
	root := add(-1, "benchmark", "setup", 0, 100)
	add(root, "graph", "parse", 10, 40)
	c := add(root, "core", "partition", 40, 90)
	add(c, "partition", "metrics", 50, 60)
	// Concurrent: root 200–300, two clients 200–300 and 220–280, the second
	// with a child covering half of it.
	root2 := add(-1, "benchmark", "cycle", 200, 300)
	add(root2, "serve", "job", 200, 300)
	k := add(root2, "live", "apply", 220, 280)
	add(k, "bsp", "run", 220, 250)
	add(-1, "benchmark", "ledger", 400, 900) // not a selected root

	by, total := tr.selfTimes("setup", "cycle")
	if total != ms(200) {
		t.Fatalf("roots total %v, want 200ms", total)
	}
	var sum time.Duration
	for _, d := range by {
		sum += d
	}
	if diff := (sum - total).Abs(); diff > time.Microsecond {
		t.Fatalf("layers sum to %v, roots to %v (%v)", sum, total, by)
	}
	want := map[string]time.Duration{
		"benchmark": ms(20), "graph": ms(30), "core": ms(40), "partition": ms(10),
		"serve": ms(70), "live": ms(15), "bsp": ms(15),
	}
	for layer, d := range want {
		if diff := (by[layer] - d).Abs(); diff > time.Microsecond {
			t.Errorf("layer %s: %v, want %v", layer, by[layer], d)
		}
	}
}

func TestSynthClipsToParent(t *testing.T) {
	tr := newTracer("test")
	sp := tr.begin(-1, "bsp", "job", 0)
	tr.spans[sp].Start, tr.spans[sp].End = 0, 10*time.Millisecond
	tr.synth(sp, synthPart{"apps", "comp", 7 * time.Millisecond}, synthPart{"transport", "comm", 0},
		synthPart{"bsp", "sync", 9 * time.Millisecond})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want parent + 2 children", len(tr.spans))
	}
	if last := tr.spans[2]; last.Start != 7*time.Millisecond || last.End != 10*time.Millisecond || !last.Synth {
		t.Errorf("second child %+v not clipped to the parent", last)
	}
	if d := tr.durations(); len(d["comp"]) != 0 || len(d["job"]) != 1 {
		t.Errorf("durations must skip synthesized spans: %v", d)
	}
}
