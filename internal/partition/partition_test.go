package partition

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ebv/internal/frame"
	"ebv/internal/gen"
	"ebv/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 2000, NumEdges: 16000, Eta: 2.2, Directed: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkAssignment(t *testing.T, g *graph.Graph, a *Assignment, k int) Metrics {
	t.Helper()
	if a.K != k {
		t.Fatalf("K = %d, want %d", a.K, k)
	}
	if len(a.Parts) != g.NumEdges() {
		t.Fatalf("assignment covers %d edges, want %d", len(a.Parts), g.NumEdges())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	m, err := ComputeMetrics(g, a)
	if err != nil {
		t.Fatalf("ComputeMetrics: %v", err)
	}
	// Σ|Ei| = |E| by construction of EdgeCounts.
	sum := 0
	for _, c := range m.EdgesPerPart {
		sum += c
	}
	if sum != g.NumEdges() {
		t.Fatalf("Σ|Ei| = %d, want %d", sum, g.NumEdges())
	}
	// RF = Σ|Vi|/|V| can dip below 1 only because isolated vertices are
	// covered by no edge set; it can never fall below covered/|V|.
	covered := NewBitset(g.NumVertices())
	for _, e := range g.Edges() {
		covered.Set(int(e.Src))
		covered.Set(int(e.Dst))
	}
	if minRF := float64(covered.Count()) / float64(g.NumVertices()); m.ReplicationFactor < minRF {
		t.Fatalf("replication factor %g below coverage floor %g", m.ReplicationFactor, minRF)
	}
	return m
}

func TestHashPartitioners(t *testing.T) {
	g := testGraph(t)
	// On a 16k-edge graph the 2-D partitioners concentrate hub rows more
	// than the 1-D hashes, so they get a looser (but still "roughly
	// balanced", per the paper) ceiling. The paper's near-1.00 figures are
	// measured on graphs four orders of magnitude larger.
	limits := map[string]float64{"Random": 1.25, "DBH": 1.25, "CVC": 1.5, "Grid": 1.5}
	for _, p := range []Partitioner{&Random{}, &DBH{}, &CVC{}, &Grid{}} {
		t.Run(p.Name(), func(t *testing.T) {
			for _, k := range []int{1, 2, 4, 12} {
				a, err := p.Partition(t.Context(), g, k)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				m := checkAssignment(t, g, a, k)
				if k > 1 && m.EdgeImbalance > limits[p.Name()] {
					t.Errorf("k=%d: edge imbalance %.3f exceeds %.2f",
						k, m.EdgeImbalance, limits[p.Name()])
				}
			}
		})
	}
}

func TestPartitionersRejectBadK(t *testing.T) {
	g := testGraph(t)
	for _, p := range []Partitioner{&Random{}, &DBH{}, &CVC{}, &Grid{}} {
		if _, err := p.Partition(t.Context(), g, 0); !errors.Is(err, ErrBadPartCount) {
			t.Errorf("%s: err = %v, want ErrBadPartCount", p.Name(), err)
		}
	}
}

func TestDBHCutsHighDegreeVertices(t *testing.T) {
	// Star graph: hub 0 with 100 leaves. DBH must hash by the leaf (the
	// low-degree endpoint), scattering the hub across parts — so the hub
	// is replicated and leaves are not.
	edges := make([]graph.Edge, 100)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.VertexID(i + 1)}
	}
	g, err := graph.New(101, edges)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&DBH{}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := checkAssignment(t, g, a, 4)
	// Hub replicated ~4 times, each leaf once: RF ≈ (100+4)/101.
	if m.ReplicationFactor > 1.1 {
		t.Errorf("DBH RF on star = %g, want ≈1.03", m.ReplicationFactor)
	}
}

func TestCVCReplicaBound(t *testing.T) {
	// CVC bounds each vertex's replicas by rows+cols-1.
	g := testGraph(t)
	k := 12 // 3x4 grid
	a, err := (&CVC{}).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, g, a, k)
	rows, cols := gridShape(k)
	if rows*cols != k {
		t.Fatalf("gridShape(%d) = %dx%d", k, rows, cols)
	}
	reps := BuildReplicasFromSets(g.NumVertices(), a.VertexSets(g))
	for v := 0; v < g.NumVertices(); v++ {
		if got := len(reps.Parts(graph.VertexID(v))); got > rows+cols-1 {
			t.Fatalf("vertex %d has %d replicas, CVC bound is %d", v, got, rows+cols-1)
		}
	}
}

func TestGridShape(t *testing.T) {
	cases := []struct{ k, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4}, {32, 4, 8}, {7, 1, 7},
	}
	for _, tc := range cases {
		r, c := gridShape(tc.k)
		if r != tc.r || c != tc.c {
			t.Errorf("gridShape(%d) = %dx%d, want %dx%d", tc.k, r, c, tc.r, tc.c)
		}
	}
}

func TestComputeMetricsSingleton(t *testing.T) {
	g := testGraph(t)
	a, err := (&Random{}).Partition(t.Context(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := checkAssignment(t, g, a, 1)
	if m.EdgeImbalance != 1 || m.VertexImbalance != 1 {
		t.Errorf("k=1 imbalances %.2f/%.2f, want 1/1", m.EdgeImbalance, m.VertexImbalance)
	}
	if m.ReplicationFactor > 1 {
		t.Errorf("k=1 RF %g, want <= 1", m.ReplicationFactor)
	}
}

func TestComputeMetricsMismatch(t *testing.T) {
	g := testGraph(t)
	a := NewAssignment(2, 5) // wrong edge count
	if _, err := ComputeMetrics(g, a); err == nil {
		t.Fatal("mismatched assignment accepted")
	}
	bad := NewAssignment(2, g.NumEdges())
	bad.Parts[0] = 7
	if _, err := ComputeMetrics(g, bad); err == nil {
		t.Fatal("out-of-range part accepted")
	}
}

func TestReplicasTable(t *testing.T) {
	g, err := graph.New(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(2, 3)
	a.Parts = []int32{0, 0, 1} // vertex 2 is cut between parts 0 and 1
	reps := BuildReplicasFromSets(g.NumVertices(), a.VertexSets(g))
	if got := reps.Parts(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("replicas of vertex 2 = %v, want [0 1]", got)
	}
	if got := reps.Parts(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("replicas of vertex 0 = %v, want [0]", got)
	}
	total := 0
	for v := 0; v < g.NumVertices(); v++ {
		total += len(reps.Parts(graph.VertexID(v)))
	}
	if total != 5 {
		t.Fatalf("total replicas = %d, want 5", total)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(200)
	for _, i := range []int{0, 63, 64, 127, 199} {
		b.Set(i)
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	if !b.Get(64) || b.Get(65) {
		t.Fatal("Get misbehaves around word boundary")
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 4 {
		t.Fatal("Clear failed")
	}
	var visited []int
	b.Range(func(i int) { visited = append(visited, i) })
	want := []int{0, 63, 127, 199}
	if len(visited) != len(want) {
		t.Fatalf("Range visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", visited, want)
		}
	}
}

func TestBitsetQuick(t *testing.T) {
	err := quick.Check(func(indices []uint16) bool {
		b := NewBitset(1 << 16)
		unique := map[int]bool{}
		for _, i := range indices {
			b.Set(int(i))
			unique[int(i)] = true
		}
		return b.Count() == len(unique)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Random", "DBH", "CVC", "Grid"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestVertexSetsCoverEndpoints(t *testing.T) {
	g := testGraph(t)
	a, err := (&Random{}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sets := a.VertexSets(g)
	for i, e := range g.Edges() {
		p := a.Parts[i]
		if !sets[p].Get(int(e.Src)) || !sets[p].Get(int(e.Dst)) {
			t.Fatalf("edge %d endpoints not covered by part %d", i, p)
		}
	}
}

func TestExpectedRandomReplicationMatchesMeasured(t *testing.T) {
	g := testGraph(t)
	for _, k := range []int{4, 12} {
		want := ExpectedRandomReplication(g, k)
		a, err := (&Random{}).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if rel := (m.ReplicationFactor - want) / want; rel > 0.03 || rel < -0.03 {
			t.Errorf("k=%d: measured RF %.3f vs model %.3f (rel %.3f)",
				k, m.ReplicationFactor, want, rel)
		}
	}
}

func TestExpectedRandomReplicationDegenerate(t *testing.T) {
	g := testGraph(t)
	if got := ExpectedRandomReplication(g, 0); got != 0 {
		t.Fatalf("k=0 model = %g", got)
	}
	empty, err := graph.New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ExpectedRandomReplication(empty, 4); got != 0 {
		t.Fatalf("empty model = %g", got)
	}
	// k=1: every covered vertex appears exactly once.
	if got := ExpectedRandomReplication(g, 1); got > 1 {
		t.Fatalf("k=1 model = %g, want <= 1", got)
	}
}

func TestEBVBeatsRandomModel(t *testing.T) {
	// EBV's whole point: land far below the random-cut model.
	g := testGraph(t)
	model := ExpectedRandomReplication(g, 12)
	a, err := ByName("DBH")
	if err != nil {
		t.Fatal(err)
	}
	assign, err := a.Partition(t.Context(), g, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputeMetrics(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplicationFactor >= model {
		t.Errorf("DBH RF %.3f >= random model %.3f", m.ReplicationFactor, model)
	}
}

func TestAssignmentTextRoundTrip(t *testing.T) {
	a := &Assignment{K: 4, Parts: []int32{0, 3, 1, 2, 0, 0}}
	var buf bytes.Buffer
	if err := WriteAssignmentText(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignmentText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != a.K || len(got.Parts) != len(a.Parts) {
		t.Fatalf("round trip: K=%d len=%d", got.K, len(got.Parts))
	}
	for i := range a.Parts {
		if got.Parts[i] != a.Parts[i] {
			t.Fatalf("entry %d: %d != %d", i, got.Parts[i], a.Parts[i])
		}
	}
}

func TestAssignmentTextHeaderRecoversK(t *testing.T) {
	// Header says 8 parts even though only ids 0..2 appear.
	in := "# parts 8 edges 3\n0\n1\n2\n"
	a, err := ReadAssignmentText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 8 {
		t.Fatalf("K = %d, want 8", a.K)
	}
	// A lying header (too small) is rejected.
	if _, err := ReadAssignmentText(strings.NewReader("# parts 2 edges 1\n5\n")); err == nil {
		t.Fatal("inconsistent header accepted")
	}
}

func TestAssignmentTextErrors(t *testing.T) {
	if _, err := ReadAssignmentText(strings.NewReader("abc\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadAssignmentText(strings.NewReader("-1\n")); err == nil {
		t.Fatal("negative part accepted")
	}
}

func TestAssignmentBinaryRoundTrip(t *testing.T) {
	g := testGraph(t)
	orig, err := (&DBH{}).Partition(t.Context(), g, 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAssignmentBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignmentBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != orig.K {
		t.Fatalf("K = %d", got.K)
	}
	for i := range orig.Parts {
		if got.Parts[i] != orig.Parts[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestAssignmentBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadAssignmentBinary(strings.NewReader("garbage bytes here....")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestAssignmentBinaryCountNotTrusted is the regression test for a reader
// that sized its entries by the file's count word: 16 bytes claiming 2³¹
// entries ran the process out of memory and 2⁶² panicked in makeslice.
// Those files, in the layout before EBVA had a version word, and frames
// claiming counts no body follows, must fail having allocated next to
// nothing.
func TestAssignmentBinaryCountNotTrusted(t *testing.T) {
	oldHeader := func(k uint32, count uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 0x45425641) // "EBVA"
		b = binary.LittleEndian.AppendUint32(b, k)
		return binary.LittleEndian.AppendUint64(b, count)
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"v1-count-2^31", oldHeader(4, 1<<31)},
		{"v1-count-2^62", oldHeader(4, 1<<62)},
		// At k = 2 a v1 file's part count reads as the current version.
		{"v1-k2-count-2^31", oldHeader(2, 1<<31)},
		{"v1-k2-count-2^62", oldHeader(2, 1<<62)},
		{"count-2^31", assignmentHeader(4, 1<<31)},
		{"count-2^32-1", assignmentHeader(4, 1<<32-1)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadAssignmentBinary(bytes.NewReader(tc.file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
			t.Fatalf("%s: the count word cost %d bytes of allocation, want < 4 MiB", tc.name, delta)
		}
	}
}

// assignmentHeader is assignmentFrame.Begin(0, k, count), built from
// bytes so that words past a 32-bit int can be written on any platform.
func assignmentHeader(k, count uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x45425641) // "EBVA"
	b = binary.LittleEndian.AppendUint32(b, assignmentFrame.Version)
	b = binary.LittleEndian.AppendUint32(b, k)
	return binary.LittleEndian.AppendUint32(b, count)
}

// TestPartCountBounded: a part count above MaxParts is rejected from every
// input that carries one, before anything is sized by it.
func TestPartCountBounded(t *testing.T) {
	if err := (&Assignment{K: MaxParts, Parts: []int32{MaxParts - 1}}).Validate(); err != nil {
		t.Fatalf("K = MaxParts rejected: %v", err)
	}
	binaryFile := func(k int) []byte {
		var buf bytes.Buffer
		if err := WriteAssignmentBinary(&buf, &Assignment{K: k, Parts: []int32{0, 0}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, read := range map[string]func() (*Assignment, error){
		"validate": func() (*Assignment, error) {
			a := &Assignment{K: MaxParts + 1}
			return a, a.Validate()
		},
		"text-header": func() (*Assignment, error) {
			return ReadAssignmentText(strings.NewReader("# parts 2000000000 edges 2\n0\n0\n"))
		},
		"text-id": func() (*Assignment, error) {
			return ReadAssignmentText(strings.NewReader(fmt.Sprintf("0\n%d\n", MaxParts)))
		},
		"binary": func() (*Assignment, error) {
			return ReadAssignmentBinary(bytes.NewReader(binaryFile(MaxParts + 1)))
		},
		"binary-2^31": func() (*Assignment, error) {
			file := frame.Seal(append(assignmentHeader(1<<31, 2), make([]byte, 8)...))
			return ReadAssignmentBinary(bytes.NewReader(file))
		},
	} {
		if _, err := read(); err == nil || !strings.Contains(err.Error(), "cap of 4096") {
			t.Errorf("%s: err = %v, want the part-count cap", name, err)
		}
	}
}

// FuzzReadAssignmentBinary: ReadAssignmentBinary over arbitrary bytes never
// panics, and a file it accepts re-encodes to exactly the bytes it
// consumed; an assignment built from the fuzzed bytes round-trips exactly,
// and every truncation and sampled single-bit flip of its file fails.
func FuzzReadAssignmentBinary(f *testing.F) {
	f.Add(uint8(4), []byte{0, 3, 1, 2, 0, 0})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), []byte{0x41, 0x56, 0x42, 0x45, 2, 0, 0, 0, 16, 0, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, kRaw uint8, data []byte) {
		r := bytes.NewReader(data)
		if a, err := ReadAssignmentBinary(r); err == nil {
			var again bytes.Buffer
			if err := WriteAssignmentBinary(&again, a); err != nil {
				t.Fatal(err)
			}
			if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("accepted file re-encodes to %x, read %x", again.Bytes(), consumed)
			}
		}

		k := int(kRaw%32) + 1
		a := &Assignment{K: k, Parts: make([]int32, len(data))}
		for i, b := range data {
			a.Parts[i] = int32(int(b) % k)
		}
		var buf bytes.Buffer
		if err := WriteAssignmentBinary(&buf, a); err != nil {
			t.Fatal(err)
		}
		file := buf.Bytes()
		got, err := ReadAssignmentBinary(bytes.NewReader(file))
		if err != nil || got.K != a.K || !slices.Equal(got.Parts, a.Parts) {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, a)
		}
		for cut := range len(file) {
			if _, err := ReadAssignmentBinary(bytes.NewReader(file[:cut])); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded", cut, len(file))
			}
		}
		stride := 1
		if len(file) > 512 {
			stride = len(file) / 64
		}
		for bit := 0; bit < 8*len(file); bit += stride {
			corrupt := bytes.Clone(file)
			corrupt[bit/8] ^= 1 << (bit % 8)
			if _, err := ReadAssignmentBinary(bytes.NewReader(corrupt)); err == nil {
				t.Fatalf("bit flip at %d decoded", bit)
			}
		}
	})
}

func FuzzReadAssignmentText(f *testing.F) {
	f.Add("0\n1\n2\n")
	f.Add("# parts 4 edges 2\n3\n0\n")
	f.Add("")
	f.Add("-5\n")
	f.Add("notanumber\n")
	f.Fuzz(func(t *testing.T, input string) {
		a, err := ReadAssignmentText(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted assignment fails validation: %v", err)
		}
	})
}

// FuzzAssignmentTextRoundTrip is the write→read inversion property the
// graph codecs got in the data-plane hardening pass: any structurally
// valid assignment must survive the text codec exactly (same K, same
// parts), and the reader must never panic on what the writer produced.
func FuzzAssignmentTextRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte{0, 3, 1, 2, 0, 0})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), []byte{15, 0, 7})
	f.Fuzz(func(t *testing.T, kRaw uint8, partsRaw []byte) {
		k := int(kRaw%32) + 1
		a := &Assignment{K: k, Parts: make([]int32, len(partsRaw))}
		for i, b := range partsRaw {
			a.Parts[i] = int32(int(b) % k)
		}
		var buf bytes.Buffer
		if err := WriteAssignmentText(&buf, a); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadAssignmentText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read back own output: %v", err)
		}
		if got.K != a.K || len(got.Parts) != len(a.Parts) {
			t.Fatalf("round trip: K %d→%d, %d→%d parts", a.K, got.K, len(a.Parts), len(got.Parts))
		}
		for i := range a.Parts {
			if got.Parts[i] != a.Parts[i] {
				t.Fatalf("entry %d: %d != %d", i, got.Parts[i], a.Parts[i])
			}
		}
	})
}

// TestWriteAssignmentTextPropagatesWriteErrors mirrors the WriteEdgeList
// hardening: a failing writer must surface the error, not be swallowed by
// buffering.
func TestWriteAssignmentTextPropagatesWriteErrors(t *testing.T) {
	a := &Assignment{K: 2, Parts: make([]int32, 100000)}
	w := &failingWriter{failAfter: 10}
	if err := WriteAssignmentText(w, a); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failingWriter struct {
	n         int
	failAfter int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.failAfter {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}
