package transport

import (
	"errors"
	"sync"
	"testing"

	"ebv/internal/graph"
)

// scalarBatch builds a width-1 batch from parallel id/value lists.
func scalarBatch(ids []graph.VertexID, vals []float64) *MessageBatch {
	b := NewMessageBatch(1)
	for i, id := range ids {
		b.AppendScalar(id, vals[i])
	}
	return b
}

// runExchange drives one collective exchange across k workers of tr and
// returns each worker's result.
func runExchange(t *testing.T, trs []Transport, step int,
	outs [][]*MessageBatch, actives []bool) []ExchangeResult {
	t.Helper()
	k := len(trs)
	results := make([]ExchangeResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = trs[w].Exchange(w, step, outs[w], actives[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return results
}

func memTrio(t *testing.T, k int) []Transport {
	t.Helper()
	m, err := NewMem(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	trs := make([]Transport, k)
	for i := range trs {
		trs[i] = m
	}
	return trs
}

// tcpTrio opens one job of the given width on a fresh loopback TCP mesh.
func tcpTrio(t *testing.T, k, width int) []Transport {
	t.Helper()
	mesh, err := NewTCPMeshDeployment(t.Context(), k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mesh.Close() })
	trs, err := mesh.OpenJob(1, width)
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

func testDelivery(t *testing.T, trs []Transport) {
	t.Helper()
	k := len(trs)
	// Worker w sends one message with value 100*w+dst to each dst.
	outs := make([][]*MessageBatch, k)
	actives := make([]bool, k)
	for w := 0; w < k; w++ {
		outs[w] = make([]*MessageBatch, k)
		for dst := 0; dst < k; dst++ {
			outs[w][dst] = scalarBatch(
				[]graph.VertexID{graph.VertexID(w)}, []float64{float64(100*w + dst)})
		}
		actives[w] = w == 0 // only worker 0 active
	}
	results := runExchange(t, trs, 0, outs, actives)
	for w, res := range results {
		if !res.AnyActive {
			t.Errorf("worker %d: AnyActive = false, want true", w)
		}
		for src := 0; src < k; src++ {
			batch := res.In[src]
			if batch.Len() != 1 {
				t.Fatalf("worker %d: %d messages from %d, want 1", w, batch.Len(), src)
			}
			if got, want := batch.Scalar(0), float64(100*src+w); got != want {
				t.Errorf("worker %d from %d: value %g, want %g", w, src, got, want)
			}
			if batch.IDs[0] != graph.VertexID(src) {
				t.Errorf("worker %d from %d: id %d", w, src, batch.IDs[0])
			}
		}
	}
	// Second step: nobody active, nothing sent.
	empty := make([][]*MessageBatch, k)
	for w := range empty {
		empty[w] = make([]*MessageBatch, k)
	}
	results = runExchange(t, trs, 1, empty, make([]bool, k))
	for w, res := range results {
		if res.AnyActive {
			t.Errorf("worker %d: AnyActive = true, want false", w)
		}
	}
}

func TestMemDelivery(t *testing.T)   { testDelivery(t, memTrio(t, 4)) }
func TestTCPDelivery(t *testing.T)   { testDelivery(t, tcpTrio(t, 4, 1)) }
func TestMemSingle(t *testing.T)     { testDelivery(t, memTrio(t, 1)) }
func TestTCPTwoWorkers(t *testing.T) { testDelivery(t, tcpTrio(t, 2, 1)) }

// testWideDelivery moves width-3 rows and checks every column survives.
func testWideDelivery(t *testing.T, trs []Transport) {
	t.Helper()
	k := len(trs)
	const width = 3
	outs := make([][]*MessageBatch, k)
	for w := 0; w < k; w++ {
		outs[w] = make([]*MessageBatch, k)
		for dst := 0; dst < k; dst++ {
			b := NewMessageBatch(width)
			b.AppendRow(graph.VertexID(w), []float64{float64(w), float64(dst), float64(w * dst)})
			outs[w][dst] = b
		}
	}
	results := runExchange(t, trs, 0, outs, make([]bool, k))
	for w, res := range results {
		for src := 0; src < k; src++ {
			b := res.In[src]
			if b.Len() != 1 || b.Width != width {
				t.Fatalf("worker %d from %d: len %d width %d", w, src, b.Len(), b.Width)
			}
			row := b.Row(0)
			if row[0] != float64(src) || row[1] != float64(w) || row[2] != float64(src*w) {
				t.Fatalf("worker %d from %d: row %v", w, src, row)
			}
		}
	}
}

func TestMemWideDelivery(t *testing.T) { testWideDelivery(t, memTrio(t, 3)) }
func TestTCPWideDelivery(t *testing.T) { testWideDelivery(t, tcpTrio(t, 3, 3)) }

func TestMemManySteps(t *testing.T) {
	trs := memTrio(t, 3)
	for step := 0; step < 50; step++ {
		outs := make([][]*MessageBatch, 3)
		actives := make([]bool, 3)
		for w := range outs {
			outs[w] = make([]*MessageBatch, 3)
			outs[w][(w+1)%3] = scalarBatch(
				[]graph.VertexID{graph.VertexID(step)}, []float64{float64(step)})
			actives[w] = true
		}
		results := runExchange(t, trs, step, outs, actives)
		for w, res := range results {
			src := (w + 2) % 3
			if res.In[src].Len() != 1 || res.In[src].Scalar(0) != float64(step) {
				t.Fatalf("step %d worker %d: bad delivery %v", step, w, res.In[src])
			}
		}
	}
}

func TestTCPLargeBatch(t *testing.T) {
	// Batches far larger than socket buffers must not deadlock.
	trs := tcpTrio(t, 3, 1)
	const n = 200000
	outs := make([][]*MessageBatch, 3)
	for w := range outs {
		outs[w] = make([]*MessageBatch, 3)
		for dst := 0; dst < 3; dst++ {
			big := NewMessageBatch(1)
			for i := 0; i < n; i++ {
				big.AppendScalar(graph.VertexID(i), float64(i))
			}
			outs[w][dst] = big
		}
	}
	results := runExchange(t, trs, 0, outs, []bool{true, true, true})
	for w, res := range results {
		for src := 0; src < 3; src++ {
			if res.In[src].Len() != n {
				t.Fatalf("worker %d: got %d msgs from %d, want %d",
					w, res.In[src].Len(), src, n)
			}
		}
		if res.In[1].Scalar(12345) != 12345 || res.In[1].IDs[54321] != 54321 {
			t.Fatalf("payload corrupted at worker %d", w)
		}
	}
}

func TestMemClosedErrors(t *testing.T) {
	m, err := NewMem(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exchange(0, 0, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemRejectsBadWorker(t *testing.T) {
	m, err := NewMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Exchange(7, 0, nil, false); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
}

func TestNewMemRejectsBadK(t *testing.T) {
	if _, err := NewMem(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestNewTCPMeshDeploymentRejectsBadK(t *testing.T) {
	if _, err := NewTCPMeshDeployment(t.Context(), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTCPWrongWorkerID(t *testing.T) {
	trs := tcpTrio(t, 2, 1)
	if _, err := trs[0].Exchange(1, 0, nil, false); err == nil {
		t.Fatal("wrong worker id accepted")
	}
}

func TestTCPClosedErrors(t *testing.T) {
	mesh, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := mesh.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = mesh.Close()
	if _, err := trs[0].Exchange(0, 0, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
