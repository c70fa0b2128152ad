package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	records, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("parse csv: %v", err)
	}
	return records
}

func TestTable1CSV(t *testing.T) {
	r, err := Table1(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 5 {
		t.Fatalf("%d records, want 5", len(records))
	}
	if records[0][0] != "graph" || records[0][5] != "eta" {
		t.Fatalf("header %v", records[0])
	}
}

func TestTable3CSV(t *testing.T) {
	r, err := Table3(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	// header + 4 graphs × 6 algorithms.
	if len(records) != 1+4*6 {
		t.Fatalf("%d records, want 25", len(records))
	}
}

func TestMessagesCSV(t *testing.T) {
	r, err := Table4(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 1+4*6 {
		t.Fatalf("%d records", len(records))
	}
	for _, rec := range records[1:] {
		if rec[3] == "" || strings.HasPrefix(rec[3], "-") {
			t.Fatalf("bad message count %q", rec[3])
		}
	}
}

func TestSweepCSV(t *testing.T) {
	r, err := Fig3(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	// header + 2 apps × 7 series × 2 worker counts.
	if len(records) != 1+2*7*2 {
		t.Fatalf("%d records", len(records))
	}
}

func TestFig5CSV(t *testing.T) {
	r, err := Fig5(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) < 24*10 {
		t.Fatalf("only %d curve samples", len(records))
	}
}

func TestTable2AndFig4CSV(t *testing.T) {
	r2, err := Table2(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 7 {
		t.Fatalf("table2 csv records = %d, want 7", got)
	}
	r4, err := Fig4(t.Context(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r4.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) < 1+6*4*3 { // ≥ 6 algos × 4 workers × 3 stages × steps
		t.Fatalf("fig4 csv records = %d", len(records))
	}
}

func TestRunCSVDispatch(t *testing.T) {
	for _, name := range ExperimentNames() {
		if name == "fig2" {
			continue // covered by the (slow) Fig2 test below
		}
		var buf bytes.Buffer
		if err := RunCSV(t.Context(), name, testOpt(), &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty csv", name)
		}
	}
	// One lookup serves both formats: a mistyped name lists the known ones.
	err := RunCSV(t.Context(), "nosuch", testOpt(), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "ablation-streaming") {
		t.Fatalf("unknown experiment: err = %v, want the known names listed", err)
	}
}

// TestTable5DispatchesToTable5 pins the registry fix: -exp table5 -csv used to run
// Table4. Both share MessagesResult's CSV form, so the bytes agree, but the
// lookup must reach Table5's constructor.
func TestTable5DispatchesToTable5(t *testing.T) {
	for _, e := range experiments {
		if e.name != "table5" {
			continue
		}
		r, err := e.run(t.Context(), testOpt())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.(*Table5Result); !ok {
			t.Fatalf("table5 dispatched to %T, want *Table5Result", r)
		}
		return
	}
	t.Fatal("table5 not registered")
}

// TestCSVBytesPinned holds the deterministic experiments' CSV to the bytes
// the pre-registry dispatch produced (SHA-256 at Scale 0.1, default seed),
// so a change to the dispatch, the experiment signatures or the shared CSV
// writer cannot alter a number or a column. table4 and table5 hold CC
// message counts; they were re-recorded three times, when CC began flooding
// its smallest replicated label before Hash-Min, when the flood's sentinel
// rows left the message counts for the engine's collective vote, and when
// CC's step 0 stopped broadcasting every replicated label (the labels did
// not move any time).
func TestCSVBytesPinned(t *testing.T) {
	want := map[string]string{
		"table1":             "3e6dde5d930cbe0fd1ad1f64bd05176f2e3d4ea99d8458c2a968ccdf3ab7b073",
		"table3":             "cd9b7df66fcc27d46fce92f5f27ddfa1c4d09b9ffe805758f522a7b6170130d5",
		"table4":             "855aecdeb3fe4f34bd245dc92a0c3804509b3aeb6f9ba85deef5ab2ca370f8d0",
		"table5":             "855aecdeb3fe4f34bd245dc92a0c3804509b3aeb6f9ba85deef5ab2ca370f8d0",
		"fig5":               "349387e2311f36146193402c55717399bf2c759f2200470d934dda60247d2d44",
		"ablation-sort":      "0e3154ee072545c951f2c04187ed29310b1f7290960b7db17b6b5f4517f656f9",
		"ablation-alphabeta": "e7e7605ed6f05cc07f882082af556f107dcc36ad991392e36f00204c23e2dac5",
		"ablation-streaming": "e7cf5c27b612c116c9e6ebfb045a63a46f3567deab789ee0e1891cf6a13f3708",
	}
	for _, name := range ExperimentNames() {
		sum, ok := want[name]
		if !ok {
			continue // timing experiments are not byte-stable
		}
		var buf bytes.Buffer
		if err := RunCSV(t.Context(), name, Options{Scale: 0.1}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != sum {
			t.Errorf("%s: csv sha256 = %s, want %s", name, got, sum)
		}
	}
}

func TestFig2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep is slow")
	}
	opt := Options{Scale: 0.08, Seed: 3, PageRankIters: 2, Workers: []int{2}}
	r, err := Fig2(t.Context(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// 3 apps × 3 graphs panels, 7 series each.
	if len(r.Panels) != 9 {
		t.Fatalf("%d panels, want 9", len(r.Panels))
	}
	for _, p := range r.Panels {
		if len(p.Series) != 7 {
			t.Fatalf("%s/%s: %d series", p.App, p.Graph, len(p.Series))
		}
	}
	// EBV must send no more CC messages than DBH/CVC on the most skewed
	// graph (Figure 2's mechanism).
	panel, ok := r.Panel(AppCC, "Twitter")
	if !ok {
		t.Fatal("no CC/Twitter panel")
	}
	ebvSeries, _ := panel.SeriesByName("EBV")
	dbhSeries, _ := panel.SeriesByName("DBH")
	if ebvSeries.Points[0].Messages > dbhSeries.Points[0].Messages {
		t.Errorf("EBV CC messages %d > DBH %d on Twitter",
			ebvSeries.Points[0].Messages, dbhSeries.Points[0].Messages)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}
