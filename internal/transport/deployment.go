package transport

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Deployment is a long-lived transport mesh serving many BSP jobs: it is
// wired once (connections dialed, routers allocated) and then hands out
// job-scoped Transports on demand, so concurrent jobs share the deployment
// without their batches ever crossing. This is the transport half of the
// Session API: Pipeline.Open builds one Deployment, every Session.Run opens
// one job on it, and Session.Close tears the mesh down.
//
// OpenJob returns one Transport per worker, all scoped to the given job id:
// a batch exchanged under job j is only ever delivered to job j's
// Exchange calls (the Mem deployment gives each job its own mailboxes; the
// TCP deployment tags every wire frame with the job id and demuxes
// incoming frames per job). Closing a job's Transports releases
// only that job's blocked exchanges — the deployment stays healthy and
// keeps serving other jobs. Closing the Deployment itself fails every open
// job with ErrClosed and releases all blocked workers.
type Deployment interface {
	// NumWorkers returns the worker count every job runs with.
	NumWorkers() int
	// OpenJob registers a job and returns its per-worker transports. Job
	// ids only go up: the id must be above every id opened before on the
	// deployment, so an id is never reopened and the deployment keeps no
	// record of a closed job. width is the job's value width, enforced
	// against every batch that crosses the job's exchanges.
	OpenJob(job uint32, width int) ([]Transport, error)
	// Close tears the deployment down: every open job's exchanges return
	// ErrClosed and no further jobs can be opened.
	Close() error
}

// admit is the job-id rule every deployment applies in OpenJob: the width
// must be in range, and the id must be at or above the watermark next,
// which then moves past it. Ids therefore never repeat without any record
// of the jobs served — the engine allocates them from an increasing
// counter — and an id below next is either open or closed for good.
func admit(next *uint64, job uint32, width int) error {
	if width < 1 || width > MaxValueWidth {
		return fmt.Errorf("transport: job %d width %d out of range [1,%d]", job, width, MaxValueWidth)
	}
	if uint64(job) < *next {
		return fmt.Errorf("transport: job %d is below the next admissible id %d (ids are single-use and increasing)", job, *next)
	}
	*next = uint64(job) + 1
	return nil
}

// MemDeployment is the in-memory Deployment. Every job is its own memJob,
// with private mailboxes and barrier, so interleaved jobs are isolated by
// construction; the deployment tracks the open ones only to release them
// collectively on Close.
type MemDeployment struct {
	k      int
	mu     sync.Mutex
	jobs   map[uint32]*memJob // open jobs
	next   uint64             // job-id watermark (see admit)
	closed bool
}

var _ Deployment = (*MemDeployment)(nil)

// NewMemDeployment returns an in-memory deployment for k workers.
func NewMemDeployment(k int) (*MemDeployment, error) {
	if k < 1 {
		return nil, fmt.Errorf("transport: need at least 1 worker, got %d", k)
	}
	return &MemDeployment{k: k, jobs: make(map[uint32]*memJob)}, nil
}

// NumWorkers implements Deployment.
func (d *MemDeployment) NumWorkers() int { return d.k }

// OpenJob implements Deployment: all k worker transports are the one
// memJob.
func (d *MemDeployment) OpenJob(job uint32, width int) ([]Transport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if err := admit(&d.next, job, width); err != nil {
		return nil, err
	}
	j := &memJob{dep: d, job: job, width: width,
		box: [2][]*MessageBatch{make([]*MessageBatch, d.k*d.k), make([]*MessageBatch, d.k*d.k)}}
	j.cond.L = &j.mu
	d.jobs[job] = j
	return slices.Repeat([]Transport{j}, d.k), nil
}

// Close implements Deployment.
func (d *MemDeployment) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, j := range d.jobs {
		j.shut()
	}
	clear(d.jobs)
	return nil
}

// memJob is one job of a MemDeployment, shared by its k workers: a k×k
// mailbox per barrier parity and one cyclic barrier. Batches cross worker
// goroutines by pointer — no copy, no encode.
//
// Barrier generation g deposits into and collects from box[g&1], so each
// Exchange needs one barrier only (the sense-reversing barrier of
// Mellor-Crummey & Scott): nobody deposits for g+1 before barrier g
// releases, and nobody passes barrier g+1 — after which box[g&1] is
// written again — before every worker has collected g.
type memJob struct {
	dep   *MemDeployment
	job   uint32
	width int

	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	gen     uint64 // barrier generations released
	closed  bool
	box     [2][]*MessageBatch // box[g&1][src*k+dst]
	any     [2]bool            // any[g&1]: OR of generation g's active votes
}

// NumWorkers implements Transport.
func (j *memJob) NumWorkers() int { return j.dep.k }

// Exchange implements Transport, rejecting batches of the wrong width
// before they enter the mailbox, so a cross-width batch fails the same way
// it does on the TCP wire.
func (j *memJob) Exchange(worker, step int, out []*MessageBatch, active bool) (ExchangeResult, error) {
	k := j.dep.k
	if worker < 0 || worker >= k {
		return ExchangeResult{}, fmt.Errorf("transport: worker %d out of range [0,%d)", worker, k)
	}
	for dst, batch := range out {
		if batch != nil && batch.Width != j.width {
			return ExchangeResult{}, fmt.Errorf(
				"transport: job %d is width %d, outgoing batch for worker %d has width %d",
				j.job, j.width, dst, batch.Width)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ExchangeResult{}, ErrClosed
	}
	p := j.gen & 1
	box := j.box[p]
	copy(box[worker*k:(worker+1)*k], out)
	j.any[p] = j.any[p] || active
	start := time.Now()
	if j.arrived++; j.arrived == k {
		// The last arriver releases the generation and clears the next
		// one's vote: every worker reads any[p^1] before it can arrive here.
		j.arrived = 0
		j.gen++
		j.any[p^1] = false
		j.cond.Broadcast()
	} else {
		for gen := j.gen; j.gen == gen && !j.closed; {
			j.cond.Wait()
		}
		if j.closed {
			return ExchangeResult{}, ErrClosed
		}
	}
	res := ExchangeResult{In: make([]*MessageBatch, k), AnyActive: j.any[p], Wait: time.Since(start)}
	for src := range res.In {
		res.In[src], box[src*k+worker] = box[src*k+worker], nil
	}
	return res, nil
}

// shut releases the job's blocked exchanges with ErrClosed.
func (j *memJob) shut() {
	j.mu.Lock()
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Close implements Transport: it closes only this job, releasing its
// blocked exchanges, and drops it from the deployment, which keeps
// serving other jobs.
func (j *memJob) Close() error {
	j.shut()
	j.dep.mu.Lock()
	delete(j.dep.jobs, j.job)
	j.dep.mu.Unlock()
	return nil
}
