package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

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

// memTrio opens one job of the given width on a fresh in-memory
// deployment.
func memTrio(t *testing.T, k, width int) []Transport {
	t.Helper()
	d, err := NewMemDeployment(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	trs, err := d.OpenJob(1, width)
	if err != nil {
		t.Fatal(err)
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

func TestMemDelivery(t *testing.T)   { testDelivery(t, memTrio(t, 4, 1)) }
func TestTCPDelivery(t *testing.T)   { testDelivery(t, tcpTrio(t, 4, 1)) }
func TestMemSingle(t *testing.T)     { testDelivery(t, memTrio(t, 1, 1)) }
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

func TestMemWideDelivery(t *testing.T) { testWideDelivery(t, memTrio(t, 3, 3)) }
func TestTCPWideDelivery(t *testing.T) { testWideDelivery(t, tcpTrio(t, 3, 3)) }

func TestMemManySteps(t *testing.T) {
	trs := memTrio(t, 3, 1)
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

// TestMemExchangeSkewStress drives two interleaved jobs through 1 000
// exchanges each at k = 8, every worker pausing a random while before each
// exchange, so fast workers deposit the next generation while slow ones
// still collect this one. Every slot of In must hold exactly the batch its
// source sent that step (or nil where it sent none), and AnyActive must
// follow the votes: one worker votes active on every third step and none
// on the others, so each mailbox parity sees the vote both set and clear.
func TestMemExchangeSkewStress(t *testing.T) {
	const k, steps = 8, 1000
	d, err := NewMemDeployment(k)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sends := func(step, src, dst int) bool { return (step+src+dst)%5 != 0 }
	var wg sync.WaitGroup
	errs := make(chan error, 2*k)
	for job := uint32(1); job <= 2; job++ {
		trs, err := d.OpenJob(job, int(job))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := skewWorker(trs[w], job, w, steps, sends)
				if err != nil {
					_ = trs[w].Close() // release the job's other workers
				}
				errs <- err
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// skewWorker is one worker of TestMemExchangeSkewStress: batch (step, src,
// dst) carries the one row id = step, value = 1000·job + k·src + dst.
func skewWorker(tr Transport, job uint32, w, steps int, sends func(step, src, dst int) bool) error {
	k, width := tr.NumWorkers(), int(job)
	r := rand.New(rand.NewPCG(uint64(job), uint64(w)))
	row := make([]float64, width)
	for step := 0; step < steps; step++ {
		switch r.IntN(4) {
		case 0:
			time.Sleep(time.Duration(r.IntN(50)) * time.Microsecond)
		case 1:
			runtime.Gosched()
		}
		out := make([]*MessageBatch, k)
		for dst := range out {
			if sends(step, w, dst) {
				row[0] = float64(1000*int(job) + k*w + dst)
				out[dst] = GetBatch(width)
				out[dst].AppendRow(graph.VertexID(step), row)
			}
		}
		res, err := tr.Exchange(w, step, out, step%3 == 0 && w == step%k)
		if err != nil {
			return fmt.Errorf("job %d worker %d step %d: %w", job, w, step, err)
		}
		if res.AnyActive != (step%3 == 0) {
			return fmt.Errorf("job %d worker %d step %d: AnyActive = %v", job, w, step, res.AnyActive)
		}
		for src, in := range res.In {
			want := float64(1000*int(job) + k*src + w)
			switch {
			case !sends(step, src, w):
				if in != nil {
					return fmt.Errorf("job %d worker %d step %d: unexpected batch from %d", job, w, step, src)
				}
			case in == nil:
				return fmt.Errorf("job %d worker %d step %d: no batch from %d", job, w, step, src)
			case in.Len() != 1 || in.Width != width || in.IDs[0] != graph.VertexID(step) || in.Scalar(0) != want:
				return fmt.Errorf("job %d worker %d step %d from %d: got ids %v vals %v, want step %d value %g",
					job, w, step, src, in.IDs, in.Vals, step, want)
			default:
				RecycleBatch(in)
			}
		}
	}
	return nil
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
	trs := memTrio(t, 2, 1)
	if err := trs[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := trs[0].Exchange(0, 0, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemRejectsBadWorker(t *testing.T) {
	trs := memTrio(t, 2, 1)
	if _, err := trs[0].Exchange(7, 0, nil, false); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
}

func TestNewMemDeploymentRejectsBadK(t *testing.T) {
	if _, err := NewMemDeployment(0); err == nil {
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
