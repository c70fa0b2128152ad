// Command ebv-lint runs the engine's custom static-analysis suite
// (internal/lint) over the module: the analyzers mechanize the repo's
// ownership, determinism, cancellation, teardown-cause, and writer-
// teardown invariants (DESIGN.md §11).
//
// Usage:
//
//	ebv-lint [-list] [-run analyzer,analyzer] [packages...]
//
// With no packages, ./... is analyzed. The exit status is 1 when any
// analyzer reports a diagnostic (none can be suppressed), so CI can gate
// on it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ebv/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and their invariants, then exit")
	run := flag.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ebv-lint [-list] [-run analyzer,...] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebv-lint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebv-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebv-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ebv-lint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -run subset, defaulting to the full suite.
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return lint.All(), nil
	}
	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (see ebv-lint -list)", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}
