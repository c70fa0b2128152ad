package main

import "testing"

// TestReportPath pins the -out resolution: the flag's default is empty, so
// "unset" is never confused with a user who typed the other mode's default
// name (-live -out BENCH_serve.json used to write BENCH_live.json).
func TestReportPath(t *testing.T) {
	for _, tc := range []struct {
		out  string
		live bool
		want string
	}{
		{"", false, "BENCH_serve.json"},
		{"", true, "BENCH_live.json"},
		{"BENCH_serve.json", true, "BENCH_serve.json"},
		{"BENCH_live.json", false, "BENCH_live.json"},
		{"r.json", true, "r.json"},
		{"-", false, "-"},
	} {
		if got := reportPath(tc.out, tc.live); got != tc.want {
			t.Errorf("reportPath(%q, live=%v) = %q, want %q", tc.out, tc.live, got, tc.want)
		}
	}
}
