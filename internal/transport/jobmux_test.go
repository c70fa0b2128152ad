package transport

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/graph"
)

// exchangeJob runs one worker's exchange of a job and reports the result.
func exchangeJob(t *testing.T, tr Transport, worker, step int, out []*MessageBatch, active bool) ExchangeResult {
	t.Helper()
	res, err := tr.Exchange(worker, step, out, active)
	if err != nil {
		t.Fatalf("worker %d step %d: %v", worker, step, err)
	}
	return res
}

// jobBatch builds a width-w batch carrying one message (id, v).
func jobBatch(w int, id graph.VertexID, v float64) *MessageBatch {
	b := GetBatch(w)
	row := make([]float64, w)
	row[0] = v
	b.AppendRow(id, row)
	return b
}

// TestMemDeploymentJobsIsolated runs two interleaved jobs of different
// widths over one MemDeployment and checks neither sees the other's
// batches.
func TestMemDeploymentJobsIsolated(t *testing.T) {
	d, err := NewMemDeployment(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runJobPairAssertIsolation(t, d)
}

// TestTCPMeshDeploymentJobsIsolated is the same isolation check over the
// real job-mux TCP mesh: interleaved jobs' frames share connections but
// must demux apart.
func TestTCPMeshDeploymentJobsIsolated(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runJobPairAssertIsolation(t, d)
}

// runJobPairAssertIsolation opens a width-1 and a width-3 job and drives
// both through interleaved exchanges from 4 goroutines; every delivered
// batch must carry its own job's width and payload.
func runJobPairAssertIsolation(t *testing.T, d Deployment) {
	t.Helper()
	tsA, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsB, err := d.OpenJob(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	drive := func(ts []Transport, worker, width int, mark float64) {
		defer wg.Done()
		for step := 0; step < steps; step++ {
			out := make([]*MessageBatch, 2)
			out[1-worker] = jobBatch(width, graph.VertexID(step), mark)
			res, err := ts[worker].Exchange(worker, step, out, true)
			if err != nil {
				errs <- fmt.Errorf("job w%d worker %d step %d: %w", width, worker, step, err)
				return
			}
			in := res.In[1-worker]
			if in.Len() != 1 || in.Width != width || in.Scalar(0) != mark ||
				in.IDs[0] != graph.VertexID(step) {
				errs <- fmt.Errorf("job w%d worker %d step %d: got len %d width %d val %g id %d (cross-job delivery?)",
					width, worker, step, in.Len(), in.Width, in.Scalar(0), in.IDs[0])
				return
			}
			RecycleBatch(in)
		}
	}
	wg.Add(4)
	go drive(tsA, 0, 1, 100)
	go drive(tsA, 1, 1, 100)
	go drive(tsB, 0, 3, 200)
	go drive(tsB, 1, 3, 200)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, tr := range append(tsA, tsB...) {
		_ = tr.Close()
	}
}

// TestDeploymentJobIDsSingleUse: a retired job id cannot be reopened on
// either deployment flavor.
func TestDeploymentJobIDsSingleUse(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (Deployment, error)
	}{
		{"mem", func() (Deployment, error) { return NewMemDeployment(2) }},
		{"tcp", func() (Deployment, error) { return NewTCPMeshDeployment(t.Context(), 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ts, err := d.OpenJob(7, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.OpenJob(7, 1); err == nil {
				t.Fatal("reopening an open job id succeeded")
			}
			for _, tr := range ts {
				_ = tr.Close()
			}
			if _, err := d.OpenJob(7, 1); err == nil {
				t.Fatal("reopening a retired job id succeeded")
			}
		})
	}
}

// TestJobMuxCrossWidthSendRejected: handing a batch of the wrong width to
// a job's Exchange fails loudly before anything reaches the wire, on both
// deployment flavors.
func TestJobMuxCrossWidthSendRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (Deployment, error)
	}{
		{"mem", func() (Deployment, error) { return NewMemDeployment(2) }},
		{"tcp", func() (Deployment, error) { return NewTCPMeshDeployment(t.Context(), 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ts, err := d.OpenJob(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]*MessageBatch, 2)
			out[1] = jobBatch(8, 0, 1) // wrong width for the job
			_, err = ts[0].Exchange(0, 0, out, true)
			if err == nil || !strings.Contains(err.Error(), "width") {
				t.Fatalf("cross-width send: err = %v, want a loud width error", err)
			}
		})
	}
}

// TestJobMuxUnknownJobFrameKillsNode injects a frame for a job the
// deployment never opened: cross-job corruption must fail the receiving
// node loudly (every open job errors) instead of being silently dropped.
func TestJobMuxUnknownJobFrameKillsNode(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(d.nodes[0].conns[1])
	if _, err := writeJobFrameV4(bw, 999, 0, true, jobBatch(1, 3, 1), new(v4Scratch)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ts[1].Exchange(1, 0, nil, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Fatalf("unknown-job frame: err = %v, want a loud unknown-job error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("unknown-job frame was swallowed; Exchange still blocked")
	}
}

// TestJobMuxForeignMagicRejected: a peer speaking any other wire version
// fails the magic check on its first frame, loudly.
func TestJobMuxForeignMagicRejected(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign := make([]byte, jobFrameHeaderBytesV4)
	copy(foreign, "CVBE") // a control-plane (EBVC) peer on the data port
	if _, err := d.nodes[0].conns[1].Write(foreign); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ts[1].Exchange(1, 0, nil, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("foreign frame into the mux: err = %v, want a magic error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("foreign frame was swallowed; Exchange still blocked")
	}
}

// TestJobCloseReleasesBlockedExchange: closing one job's transport frees a
// worker blocked waiting for peers, while a second job keeps running.
func TestJobCloseReleasesBlockedExchange(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tsA, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsB, err := d.OpenJob(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Worker 0 of job A exchanges; worker 1 of job A never shows up.
		_, err := tsA[0].Exchange(0, 0, nil, true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = tsA[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked exchange after job close: err = %v, want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job close did not release the blocked exchange")
	}
	// Job B is unaffected by job A's teardown.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		exchangeJob(t, tsB[1], 1, 0, nil, false)
	}()
	exchangeJob(t, tsB[0], 0, 0, nil, false)
	wg.Wait()
	for _, tr := range tsB {
		_ = tr.Close()
	}
}

// TestDeploymentCloseReleasesAllJobs: closing the deployment frees blocked
// exchanges of every open job with ErrClosed.
func TestDeploymentCloseReleasesAllJobs(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Exchange(0, 0, nil, true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked exchange after deployment close: err = %v, want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deployment close did not release the blocked exchange")
	}
	if _, err := d.OpenJob(9, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenJob on a closed deployment: err = %v, want ErrClosed", err)
	}
}
