package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json --check needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares one bounded metric across two runs: b is the candidate,
// a the reference. An exact metric repeats for the same inputs (and
// --check compares no others), so it has no noise and no tolerance: any
// change is a regression or an improvement. For a timing, a spread wider
// than the bound on either side means the difference cannot be told from
// noise, so the row is unresolved rather than ok; otherwise b regressed
// if its median is worse than a's by more than the bound.
func judge(a, b summary, better string, bound float64) (verdict string, worse float64) {
	worse = worsening(a.Value, b.Value, better)
	if a.Exact && b.Exact {
		switch {
		case worse > 0:
			return verdictRegressed, worse
		case worse < 0:
			return verdictImproved, worse
		}
		return verdictOK, worse
	}
	switch {
	case max(a.spread(), b.spread()) > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// runCheck compares result file b against a, metric by metric and
// workload by workload, against the bounds in BENCHMARK.json. It exits
// non-zero on a regression, on a higher failure rate, on a run of a that
// b lacks (or the reverse), or when two runs were not measured on the
// same inputs, for the same time, at the same scale and sample plan.
func runCheck(stdout, stderr io.Writer, benchJSON, pathA, pathB string) int {
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", benchJSON, err)
		return 2
	}
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tspread a/b\tbound\tverdict")
	for _, rb := range b.Runs {
		i := slices.IndexFunc(a.Runs, func(r runRecord) bool { return r.Workload == rb.Workload && r.Trace == rb.Trace })
		if i < 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tmissing in %s\n", rb.Workload, pathA)
			bad++
			continue
		}
		ra := a.Runs[i]
		if !sameInputs(ra.Inputs, rb.Inputs) {
			fmt.Fprintf(tw, "%s\tinputs\t-\t-\t-\t-\t-\tdiffer: not comparable\n", rb.Workload)
			bad++
			continue
		}
		if ra.Seconds != rb.Seconds || ra.Scale != rb.Scale || ra.Plan != rb.Plan {
			fmt.Fprintf(tw, "%s\tseconds, scale, plan\t%g, %g, %v\t%g, %g, %v\t-\t-\t-\tdiffer: not comparable\n", rb.Workload,
				ra.Seconds, ra.Scale, ra.Plan, rb.Seconds, rb.Scale, rb.Plan)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			verdict, worse := judge(sa, sb, m.Better, m.Bound)
			if verdict == verdictRegressed {
				bad++
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if sa.Exact && sb.Exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%/%.1f%%\t%s\t%s\n", rb.Workload, m.Name,
				sa.Value, sb.Value, 100*worse, 100*sa.spread(), 100*sb.spread(), bound, verdict)
		}
		// Exact counts have no bound: a change is reported, not judged.
		names := make([]string, 0, len(rb.Metrics))
		for name, sb := range rb.Metrics {
			if sa, ok := ra.Metrics[name]; ok && sa.Exact && sb.Exact && !boundedMetric(spec, name) {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			sa, sb := ra.Metrics[name], rb.Metrics[name]
			verdict := "same"
			if sa.Value != sb.Value {
				verdict = "changed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t\texact\t%s\n", rb.Workload, name, sa.Value, sb.Value, verdict)
		}
		rateA := float64(ra.OpsFailed) / float64(max(ra.OpsAttempted, 1))
		rateB := float64(rb.OpsFailed) / float64(max(rb.OpsAttempted, 1))
		verdict := verdictOK
		if rateB > rateA {
			verdict = verdictRegressed
			bad++
		}
		fmt.Fprintf(tw, "%s\tops_failed/attempted\t%d/%d\t%d/%d\t\t\t\t%s\n", rb.Workload,
			ra.OpsFailed, ra.OpsAttempted, rb.OpsFailed, rb.OpsAttempted, verdict)
	}
	// A candidate set that drops a run must not pass for lacking it.
	for _, ra := range a.Runs {
		if !slices.ContainsFunc(b.Runs, func(r runRecord) bool { return r.Workload == ra.Workload && r.Trace == ra.Trace }) {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tmissing in %s\n", ra.Workload, pathB)
			bad++
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d row(s) failed\n", bad)
		return 1
	}
	return 0
}

func boundedMetric(spec benchSpec, name string) bool {
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// sameInputs reports whether two runs were fed byte-identical files.
func sameInputs(a, b []*graphInput) bool {
	return slices.EqualFunc(a, b, func(x, y *graphInput) bool { return x.SHA256 == y.SHA256 })
}
