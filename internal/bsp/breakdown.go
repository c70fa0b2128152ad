package bsp

import "time"

// The helpers in this file compute the paper's §V-B breakdown metrics from
// a Result:
//
//	comp = Σ_i Σ_k comp_i^k / p      (average computation time)
//	comm = Σ_i Σ_k comm_i^k / p      (average communication time)
//	ΔC   = Σ_k [max_i(comp_i^k+comm_i^k) − min_i(comp_i^k+comm_i^k)]
//
// ΔC is the accumulated longest synchronization (waiting) time and is the
// paper's workload-balance indicator (Table II).

// AvgComp returns the average total computation time across workers.
func (r *Result) AvgComp() time.Duration { return r.avg((*WorkerStats).TotalComp) }

// AvgComm returns the average total communication time across workers.
func (r *Result) AvgComm() time.Duration { return r.avg((*WorkerStats).TotalComm) }

// avg returns the mean of one per-worker total across workers.
func (r *Result) avg(of func(*WorkerStats) time.Duration) time.Duration {
	if len(r.Workers) == 0 {
		return 0
	}
	var total time.Duration
	for i := range r.Workers {
		total += of(&r.Workers[i])
	}
	return total / time.Duration(len(r.Workers))
}

// DeltaC returns the accumulated per-superstep spread of comp+comm across
// workers — the paper's ΔC.
func (r *Result) DeltaC() time.Duration {
	var total time.Duration
	for k := range r.Steps {
		var maxD, minD time.Duration
		seen := false
		for i := range r.Workers {
			w := &r.Workers[i]
			if k >= len(w.Comp) {
				continue
			}
			d := w.Comp[k] + w.Comm[k]
			if !seen {
				maxD, minD, seen = d, d, true
			}
			maxD, minD = max(maxD, d), min(minD, d)
		}
		total += maxD - minD
	}
	return total
}

// TotalMessages returns the total number of messages sent between workers
// over the whole run (Table IV): the rows that crossed the exchange.
func (r *Result) TotalMessages() int64 { return r.MessageCounts().Wire }

// MessageCounts aggregates a run's cross-worker message rows at the two
// ends of the exchange: Wire at the sender, Delivered at the receiver. The
// engine sends each batch as the program emitted it and the receiver
// concatenates, never folds, so Emitted = Wire = Delivered.
// The JSON tags are a stable lowercase surface: ebv.JobResult and the
// serve-layer job responses marshal these counts directly.
type MessageCounts struct {
	// Emitted is filled from Wire. It is kept for the JSON surface and
	// for benchmark/'s rows_emitted (ROADMAP item 1(b)).
	Emitted int64 `json:"emitted"`
	// Wire counts the rows that crossed the exchange — the
	// platform-independent network-volume metric TotalMessages reports.
	Wire int64 `json:"wire"`
	// Delivered counts the rows handed to the programs' inboxes: every
	// wire row, counted at the receiving end.
	Delivered int64 `json:"delivered"`
}

// MessageCounts returns the run's message accounting.
func (r *Result) MessageCounts() MessageCounts {
	var c MessageCounts
	for i := range r.Workers {
		w := &r.Workers[i]
		c.Wire += w.TotalSent()
		c.Delivered += sum(w.Received)
	}
	c.Emitted = c.Wire
	return c
}

// MaxMeanMessageRatio returns max_i(sent_i) / mean_i(sent_i), the paper's
// communication balance metric (Table V). Returns 1 when no messages flow.
func (r *Result) MaxMeanMessageRatio() float64 {
	var total, maxSent int64
	for i := range r.Workers {
		s := r.Workers[i].TotalSent()
		total, maxSent = total+s, max(maxSent, s)
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(r.Workers))
	return float64(maxSent) / mean
}

// TimelineSegment is one stage of one worker's execution, for the Figure 4
// per-worker breakdown.
type TimelineSegment struct {
	Worker int
	Step   int
	// Stage is "comp", "comm" or "sync".
	Stage string
	Start time.Duration // offset from run start, reconstructed serially
	End   time.Duration
}

// stages names a superstep's stages in their order.
var stages = [...]string{"comp", "comm", "sync"}

// Timeline reconstructs each worker's serial sequence of stage segments.
// (Stages within a worker are serial by construction; the reconstruction
// simply accumulates durations, which is how Figure 4 renders them.)
func (r *Result) Timeline() []TimelineSegment {
	var segments []TimelineSegment
	for i := range r.Workers {
		w := &r.Workers[i]
		var cursor time.Duration
		for k := range w.Comp {
			for j, dur := range []time.Duration{w.Comp[k], w.Comm[k], w.Sync[k]} {
				segments = append(segments, TimelineSegment{Worker: i, Step: k, Stage: stages[j], Start: cursor, End: cursor + dur})
				cursor += dur
			}
		}
	}
	return segments
}
