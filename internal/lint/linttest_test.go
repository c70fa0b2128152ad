package lint

// The fixture harness mirrors analysistest: each analyzer has a package
// under testdata/src/<name> whose sources carry expectation comments,
//
//	call()          // want "regexp"
//	//ebv:directive
//	// want-1 "regexp"    (the diagnostic is expected on the PREVIOUS line)
//
// The want-1 form exists because //ebv: directives are line comments:
// appending `// want` to one would merge into the directive's own text
// and corrupt its reason, so expectations about a directive line live on
// the line below it. Every diagnostic must match one expectation on its
// line, and every expectation must be hit.

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func parseExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, name := range pkg.Filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(src), "\n") {
			line := i + 1
			idx := strings.Index(lineText, "// want")
			if idx < 0 {
				continue
			}
			rest := lineText[idx+len("// want"):]
			target := line
			if strings.HasPrefix(rest, "-1") {
				target = line - 1
				rest = rest[2:]
			}
			quotes := quotedRe.FindAllString(rest, -1)
			if len(quotes) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted regexp): %s", name, line, strings.TrimSpace(lineText))
			}
			for _, q := range quotes {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", name, line, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, line, pat, err)
				}
				out = append(out, &expectation{file: name, line: target, re: re, raw: pat})
			}
		}
	}
	return out
}

// loadFixture loads the analyzer fixture package testdata/src/<name>.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// testFixture runs the given analyzers over the named fixture and
// compares the surviving diagnostics against the fixture's expectation
// comments.
func testFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	diags, err := RunAnalyzers([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	exps := parseExpectations(t, pkg)
	for _, d := range diags {
		matched := false
		for _, e := range exps {
			if !e.hit && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, e := range exps {
		if !e.hit {
			t.Errorf("missing diagnostic: %s:%d: no diagnostic matched %q", e.file, e.line, e.raw)
		}
	}
}
