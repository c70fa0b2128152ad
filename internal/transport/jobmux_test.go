package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/frame"
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

// TestDeploymentJobIDsSingleUse: on either deployment flavor an id below
// the watermark is refused, whether it is open, closed or was never
// opened, and closing a job leaves no entry behind.
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
				t.Fatal("reopening a closed job id succeeded")
			}
			if _, err := d.OpenJob(5, 1); err == nil {
				t.Fatal("opening a never-opened id below the watermark succeeded")
			}
			if open := openJobs(d); open != 0 {
				t.Fatalf("%d job entries left after every job closed", open)
			}
			ts, err = d.OpenJob(8, 1)
			if err != nil {
				t.Fatalf("opening the next id: %v", err)
			}
			for _, tr := range ts {
				_ = tr.Close()
			}
		})
	}
}

// openJobs counts the job entries a deployment still holds, on every node.
func openJobs(d Deployment) int {
	switch d := d.(type) {
	case *MemDeployment:
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.jobs)
	case *TCPMeshDeployment:
		open := 0
		for _, n := range d.nodes {
			n.mu.Lock()
			open += len(n.jobs)
			n.mu.Unlock()
		}
		return open
	}
	panic(fmt.Sprintf("unknown deployment %T", d))
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
	if _, err := d.nodes[0].conns[1].Write(encodeV4Frame(t, 999, 0, true, jobBatch(1, 3, 1))); err != nil {
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

// TestJobMuxStragglerDropped: a bundle for a closed job — an id below the
// watermark — is a straggler and is dropped, and the node goes on to serve
// the next job; a bundle for an id at the watermark, not yet admitted,
// still kills the node as cross-job corruption.
func TestJobMuxStragglerDropped(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		_ = tr.Close()
	}
	// Written ahead of job 2's bundles on the same stream, so worker 1's
	// demux routes it first.
	if _, err := d.nodes[0].conns[1].Write(encodeV4Frame(t, 1, 0, true, jobBatch(1, 3, 1))); err != nil {
		t.Fatal(err)
	}
	ts, err = d.OpenJob(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var got ExchangeResult
	var gotErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, gotErr = ts[1].Exchange(1, 0, nil, false)
	}()
	_, err = ts[0].Exchange(0, 0, []*MessageBatch{nil, jobBatch(1, 5, 2)}, false)
	wg.Wait()
	if err = errors.Join(err, gotErr); err != nil {
		t.Fatalf("job 2 after the straggler: %v", err)
	}
	if in := got.In[0]; in.Len() != 1 || in.IDs[0] != 5 || in.Scalar(0) != 2 || got.AnyActive {
		t.Fatalf("job 2 after the straggler: got %v / %v, active %v", in.IDs, in.Vals, got.AnyActive)
	}

	if _, err := d.nodes[0].conns[1].Write(encodeV4Frame(t, 3, 0, true, jobBatch(1, 3, 1))); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ts[1].Exchange(1, 1, nil, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "unknown job 3") {
			t.Fatalf("bundle for an id at the watermark: err = %v, want a loud unknown-job error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bundle for an unadmitted id was swallowed; Exchange still blocked")
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
	foreign := make([]byte, bundleHeaderBytes)
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

// TestJobMuxStaleWireRejected: an EBV5 bundle — the varint-column wire
// this one replaced, under its own magic and a valid CRC — reaching an
// EBV6 node fails the receiving Exchange with a magic error, never a
// misparse and never a hang.
func TestJobMuxStaleWireRejected(t *testing.T) {
	d, err := NewTCPMeshDeployment(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts, err := d.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One EBV5 block, 0 → 1: u8 flags (delta ids) | u32 count | u32 idBytes
	// | u32 valBytes after src and dst, then a 1-byte id delta and a raw f64.
	block := []byte{0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	stale := sealBundle(bundleActive, 1, 1, block)
	binary.LittleEndian.PutUint32(stale[0:4], 0x45425635) // "EBV5": outside the CRC, as on the old wire
	binary.LittleEndian.PutUint32(stale[4:8], 1)
	binary.LittleEndian.PutUint32(stale[24:28], frame.Checksum(frame.Checksum(0, stale[4:24]), block))
	if _, err := d.nodes[0].conns[1].Write(stale); err != nil {
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
			t.Fatalf("EBV5 bundle into an EBV6 node: err = %v, want a magic error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("EBV5 bundle was swallowed; Exchange still blocked")
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
