package lint

import "testing"

func TestBatchOwn(t *testing.T)      { testFixture(t, "batchown", []*Analyzer{BatchOwn}) }
func TestCtxFlow(t *testing.T)       { testFixture(t, "ctxflow", []*Analyzer{CtxFlow}) }
func TestDetOrder(t *testing.T)      { testFixture(t, "detorder", []*Analyzer{DetOrder}) }
func TestTeardownCause(t *testing.T) { testFixture(t, "teardowncause", []*Analyzer{TeardownCause}) }
func TestCloseErr(t *testing.T)      { testFixture(t, "closeerr", []*Analyzer{CloseErr}) }

// TestNolintLint runs the FULL suite over the nolintlint fixture, so a
// nolint directive is shown to be an unknown verb that silences nothing.
func TestNolintLint(t *testing.T) { testFixture(t, "nolintlint", All()) }

// TestAnalyzerMetadata pins the suite's shape: every analyzer is named,
// documented, runnable, and unique, nolintlint included.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 6 {
		t.Errorf("suite has %d analyzers, want at least 6", len(seen))
	}
	for _, name := range []string{"batchown", "ctxflow", "detorder", "teardowncause", "closeerr", "nolintlint"} {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
}

// TestRepoIsClean is the enforcement test: the full suite over the whole
// module must be silent. Reintroducing a retained batch, an unsorted
// map-range on a wire path, a raw teardown error, an unchecked writer
// Close, or a root context in engine code fails here (and in the CI
// ebv-lint step) before it can flake in the byte-identity suites.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
