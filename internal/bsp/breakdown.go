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
func (r *Result) AvgComp() time.Duration {
	if len(r.Workers) == 0 {
		return 0
	}
	var total time.Duration
	for i := range r.Workers {
		total += r.Workers[i].TotalComp()
	}
	return total / time.Duration(len(r.Workers))
}

// AvgComm returns the average total communication time across workers.
func (r *Result) AvgComm() time.Duration {
	if len(r.Workers) == 0 {
		return 0
	}
	var total time.Duration
	for i := range r.Workers {
		total += r.Workers[i].TotalComm()
	}
	return total / time.Duration(len(r.Workers))
}

// DeltaC returns the accumulated per-superstep spread of comp+comm across
// workers — the paper's ΔC.
func (r *Result) DeltaC() time.Duration {
	var total time.Duration
	for k := 0; k < r.Steps; k++ {
		var maxD, minD time.Duration
		first := true
		for i := range r.Workers {
			w := &r.Workers[i]
			if k >= len(w.Comp) {
				continue
			}
			d := w.Comp[k] + w.Comm[k]
			if first {
				maxD, minD = d, d
				first = false
				continue
			}
			if d > maxD {
				maxD = d
			}
			if d < minD {
				minD = d
			}
		}
		total += maxD - minD
	}
	return total
}

// TotalMessages returns the total number of messages sent between workers
// over the whole run (Table IV) — the rows that actually crossed the
// exchange, i.e. after sender-side combining when a combiner is
// configured. MessageCounts breaks the pre/post-combine counts apart.
func (r *Result) TotalMessages() int64 {
	var total int64
	for i := range r.Workers {
		total += r.Workers[i].TotalSent()
	}
	return total
}

// MessageCounts aggregates a run's cross-worker message rows at the three
// measurement points of the message path, so combining's reduction can be
// reported honestly: Emitted ≥ Wire (sender-side combining; equal without
// a combiner) and Delivered = Wire always — the receiver concatenates, it
// never folds.
// The JSON tags are a stable lowercase surface: ebv.JobResult and the
// serve-layer job responses marshal these counts directly.
type MessageCounts struct {
	// Emitted counts the rows programs produced for other workers, before
	// any combining.
	Emitted int64 `json:"emitted"`
	// Wire counts the rows that crossed the exchange (post sender-side
	// combining) — the platform-independent network-volume metric
	// TotalMessages reports.
	Wire int64 `json:"wire"`
	// Delivered counts the rows handed to the programs' inboxes: every
	// wire row, counted at the receiving end.
	Delivered int64 `json:"delivered"`
}

// MessageCounts returns the run's pre/post-combine message accounting.
func (r *Result) MessageCounts() MessageCounts {
	var c MessageCounts
	for i := range r.Workers {
		w := &r.Workers[i]
		c.Emitted += w.TotalEmitted()
		c.Wire += w.TotalSent()
		c.Delivered += sumInt64(w.Received)
	}
	return c
}

// MaxMeanMessageRatio returns max_i(sent_i) / mean_i(sent_i), the paper's
// communication balance metric (Table V). Returns 1 when no messages flow.
func (r *Result) MaxMeanMessageRatio() float64 {
	if len(r.Workers) == 0 {
		return 1
	}
	var total, maxSent int64
	for i := range r.Workers {
		s := r.Workers[i].TotalSent()
		total += s
		if s > maxSent {
			maxSent = s
		}
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

// Timeline reconstructs each worker's serial sequence of stage segments.
// (Stages within a worker are serial by construction; the reconstruction
// simply accumulates durations, which is how Figure 4 renders them.)
func (r *Result) Timeline() []TimelineSegment {
	var segments []TimelineSegment
	for i := range r.Workers {
		w := &r.Workers[i]
		var cursor time.Duration
		for k := range w.Comp {
			stages := []struct {
				name string
				dur  time.Duration
			}{
				{"comp", w.Comp[k]},
				{"comm", w.Comm[k]},
				{"sync", w.Sync[k]},
			}
			for _, st := range stages {
				segments = append(segments, TimelineSegment{
					Worker: i,
					Step:   k,
					Stage:  st.name,
					Start:  cursor,
					End:    cursor + st.dur,
				})
				cursor += st.dur
			}
		}
	}
	return segments
}
