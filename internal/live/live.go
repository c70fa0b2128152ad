package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// ErrRejected wraps every validation failure of a mutation batch: a batch
// is applied atomically or not at all, and a rejected batch leaves the
// live state untouched.
var ErrRejected = errors.New("live: mutation batch rejected")

// driftThreshold is the relative replication-factor growth over the
// baseline past which Apply flags NeedsRepartition — the live form of the
// paper's Fig. 5 replication-growth experiment. The flag is advisory:
// nothing repartitions on it.
const driftThreshold = 0.2

// Config tunes a live mutation layer.
type Config struct {
	// Policy assigns inserted edges to parts online (nil → EBVPolicy).
	Policy Policy
	// VerifyPatches cross-checks every incremental patch against a full
	// part-parallel rebuild and rejects the batch on any divergence —
	// the byte-identity assertion between the two paths, paid at full
	// rebuild cost (tests and smoke runs turn it on).
	VerifyPatches bool
	// ForceRebuild routes every batch through a full part-parallel rebuild
	// instead of the incremental patch path.
	ForceRebuild bool
}

// Stats is a snapshot of the mutation layer's lifetime counters.
type Stats struct {
	// Epoch is the deployment epoch after the last applied batch.
	Epoch uint64
	// Batches counts applied (committed) mutation batches.
	Batches int64
	// Inserts and Deletes count applied mutations by kind.
	Inserts int64
	Deletes int64
	// PartsRebuilt counts parts rebuilt from their edge buckets (the
	// BuildPart delta primitive); PartsPatched counts parts that only
	// had replica-peer/degree rows patched; PartsReused counts parts
	// carried over by pointer, untouched.
	PartsRebuilt int64
	PartsPatched int64
	PartsReused  int64
	// FullRebuilds counts batches that took the full rebuild.
	FullRebuilds int64
	// RF is the current replication factor Σ|Vp|/|V|; BaselineRF is the
	// RF right after preparation; Drift is RF/BaselineRF − 1.
	RF         float64
	BaselineRF float64
	Drift      float64
	// NeedsRepartition reports that Drift exceeds driftThreshold.
	NeedsRepartition bool
}

// ApplyResult describes one committed mutation batch.
type ApplyResult struct {
	// Epoch is the deployment epoch the batch produced.
	Epoch uint64 `json:"epoch"`
	// Inserted and Deleted count the batch's mutations by kind.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// PartsRebuilt / PartsPatched / PartsReused break down what happened
	// to each of the k parts (they sum to k).
	PartsRebuilt int `json:"parts_rebuilt"`
	PartsPatched int `json:"parts_patched"`
	PartsReused  int `json:"parts_reused"`
	// FullRebuild reports the batch took the full rebuild.
	FullRebuild bool `json:"full_rebuild,omitempty"`
	// NeedsRepartition reports RF drift past driftThreshold.
	NeedsRepartition bool `json:"needs_repartition,omitempty"`
	// RF and Drift are the post-batch replication factor and its
	// relative growth over the baseline.
	RF    float64 `json:"replication_factor"`
	Drift float64 `json:"rf_drift"`
	// PatchTime is the time spent mutating the graph + subgraphs
	// (excluding any verification rebuild).
	PatchTime time.Duration `json:"patch_time_ns"`
}

// State is the live mutation layer over one prepared deployment: the
// current graph, its edge assignment, the per-part coverage sets and the
// current subgraph snapshot. Apply is the only mutator; it never touches
// a previously published graph or subgraph (copy-on-write throughout), so
// jobs running on an older epoch are undisturbed.
type State struct {
	mu     sync.Mutex
	policy Policy
	cfg    Config

	k          int
	n          int
	g          *graph.Graph
	parts      []int32
	sets       []partition.Bitset
	baselineRF float64
	subs       []*bsp.Subgraph
	stats      Stats
}

// NewState attaches a mutation layer to a prepared build. subs must be
// the subgraphs built from (g, a): each part's coverage set is read off
// its GlobalIDs, and its edge count off its Edges. The state takes
// logical ownership of the assignment's Parts (cloned) but never mutates
// g or subs. Weighted builds are rejected — a Mutation carries no weight.
func NewState(g *graph.Graph, a *partition.Assignment, subs []*bsp.Subgraph, cfg Config) (*State, error) {
	if g == nil || a == nil {
		return nil, errors.New("live: nil graph or assignment")
	}
	if len(subs) != a.K {
		return nil, fmt.Errorf("live: %d subgraphs for a %d-part assignment", len(subs), a.K)
	}
	if len(a.Parts) != g.NumEdges() {
		return nil, fmt.Errorf("live: assignment covers %d edges, graph has %d", len(a.Parts), g.NumEdges())
	}
	policy := cfg.Policy
	if policy == nil {
		policy = EBVPolicy{}
	}
	st := &State{
		policy: policy,
		cfg:    cfg,
		k:      a.K,
		n:      g.NumVertices(),
		g:      g,
		parts:  slices.Clone(a.Parts),
		subs:   subs,
		sets:   make([]partition.Bitset, a.K),
	}
	for p, sub := range subs {
		if sub == nil || sub.Part != p {
			return nil, fmt.Errorf("live: subgraph %d missing or misnumbered", p)
		}
		if sub.Weights != nil {
			return nil, errors.New("live: weighted sessions do not accept mutations (a mutation carries no weight)")
		}
		st.sets[p] = partition.NewBitset(st.n)
		for _, v := range sub.GlobalIDs {
			st.sets[p].Set(int(v))
		}
	}
	st.baselineRF = st.rf()
	st.stats.RF = st.baselineRF
	st.stats.BaselineRF = st.baselineRF
	return st, nil
}

// rf is Σ|Vp|/|V| over the current subgraphs.
func (st *State) rf() float64 {
	if st.n == 0 {
		return 0
	}
	replicas := 0
	for _, sub := range st.subs {
		replicas += len(sub.GlobalIDs)
	}
	return float64(replicas) / float64(st.n)
}

// Stats returns a snapshot of the layer's counters.
func (st *State) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Snapshot returns the current graph, a copy of its edge assignment and
// the epoch they correspond to. The graph is never mutated after
// publication, so callers may hold it across later Applies.
func (st *State) Snapshot() (*graph.Graph, *partition.Assignment, uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.g, &partition.Assignment{K: st.k, Parts: slices.Clone(st.parts)}, st.stats.Epoch
}

// Apply validates and applies one mutation batch atomically, then swaps
// the new subgraph snapshot into the deployment through swap (which must
// be bsp.(*Deployment).Swap or an equivalent) and returns the committed
// epoch. On any error the state is unchanged and nothing is swapped.
func (st *State) Apply(ctx context.Context, muts []Mutation,
	swap func([]*bsp.Subgraph) (uint64, error)) (*ApplyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return &ApplyResult{
			Epoch:       st.stats.Epoch,
			PartsReused: st.k,
			RF:          st.stats.RF,
			Drift:       st.stats.Drift,
		}, nil
	}
	start := time.Now()

	// ---- Validate (nothing mutated until every check passes). ----
	inserts, deletes := 0, 0
	wants := make(map[graph.Edge]int)
	for i, m := range muts {
		if int64(m.Src) >= int64(st.n) || int64(m.Dst) >= int64(st.n) {
			return nil, fmt.Errorf("%w: mutation %d: edge (%d,%d) outside the %d-vertex id space",
				ErrRejected, i, m.Src, m.Dst, st.n)
		}
		switch m.Op {
		case OpInsert:
			inserts++
		case OpDelete:
			deletes++
			wants[graph.Edge{Src: m.Src, Dst: m.Dst}]++
		default:
			return nil, fmt.Errorf("%w: mutation %d: unknown op %d", ErrRejected, i, uint32(m.Op))
		}
	}
	edges := st.g.Edges()
	if int64(len(edges)-deletes+inserts) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d edges exceed the int32 edge-index limit",
			ErrRejected, len(edges)-deletes+inserts)
	}
	// Deletes claim the lowest-indexed occurrence of their (src,dst)
	// pair; the claim scan doubles as existence validation.
	var tomb partition.Bitset
	if deletes > 0 {
		tomb = partition.NewBitset(len(edges))
		remaining := deletes
		for i, e := range edges {
			if w := wants[e]; w > 0 {
				wants[e] = w - 1
				tomb.Set(i)
				remaining--
				if remaining == 0 {
					break
				}
			}
		}
		if remaining > 0 {
			for i, m := range muts {
				if m.Op == OpDelete && wants[graph.Edge{Src: m.Src, Dst: m.Dst}] > 0 {
					return nil, fmt.Errorf("%w: mutation %d deletes absent edge (%d,%d)",
						ErrRejected, i, m.Src, m.Dst)
				}
			}
		}
	}

	// ---- Assign inserts online, in batch order, against the scoring
	// state of the pre-batch coverage with the deletes' edges taken off
	// (nothing is committed until the batch succeeds). ----
	ecount := make([]int, st.k)
	for p, sub := range st.subs {
		ecount[p] = len(sub.Edges)
	}
	affected := make([]bool, st.k)
	if tomb != nil {
		tomb.Range(func(i int) {
			p := st.parts[i]
			ecount[p]--
			affected[p] = true
		})
	}
	scoring := partition.StateOf(st.n, st.sets, ecount)
	insParts := make([]int32, 0, inserts)
	for _, m := range muts {
		if m.Op != OpInsert {
			continue
		}
		e := graph.Edge{Src: m.Src, Dst: m.Dst}
		p := st.policy.Assign(scoring, st.g, e)
		if p < 0 || p >= st.k {
			return nil, fmt.Errorf("live: policy %s assigned edge (%d,%d) to part %d of %d",
				st.policy.Name(), e.Src, e.Dst, p, st.k)
		}
		insParts = append(insParts, int32(p))
		affected[p] = true
		scoring.Place(e, p)
	}

	// ---- Compact the edge list (order-preserving) + rebucket. ----
	newEdges := make([]graph.Edge, 0, len(edges)-deletes+inserts)
	newParts := make([]int32, 0, len(edges)-deletes+inserts)
	for i, e := range edges {
		if tomb != nil && tomb.Get(i) {
			continue
		}
		newEdges = append(newEdges, e)
		newParts = append(newParts, st.parts[i])
	}
	ins := 0
	for _, m := range muts {
		if m.Op == OpInsert {
			newEdges = append(newEdges, graph.Edge{Src: m.Src, Dst: m.Dst})
			newParts = append(newParts, insParts[ins])
			ins++
		}
	}
	newG, err := graph.New(st.n, newEdges)
	if err != nil {
		return nil, fmt.Errorf("live: rebuild graph: %w", err)
	}
	buckets := bsp.BucketByPart(newParts, st.k)

	// ---- Coverage: recompute the sets of the affected parts from their
	// new buckets; the other parts kept every edge they had. ----
	finalSets := slices.Clone(st.sets)
	bsp.RunParts(runtime.GOMAXPROCS(0), st.k, func(p int) {
		if affected[p] {
			finalSets[p] = bsp.Coverage(newG, buckets[p])
		}
	})

	// ---- Patch, or rebuild every part when configured to. ----
	res := &ApplyResult{Inserted: inserts, Deleted: deletes}
	var newSubs []*bsp.Subgraph
	if st.cfg.ForceRebuild {
		newSubs, err = bsp.BuildSubgraphs(newG, &partition.Assignment{K: st.k, Parts: newParts})
		if err != nil {
			return nil, fmt.Errorf("live: full rebuild: %w", err)
		}
		res.FullRebuild = true
		res.PartsRebuilt = st.k
	} else {
		newSubs = st.patch(patchIn{
			newG:      newG,
			buckets:   buckets,
			affected:  affected,
			finalSets: finalSets,
			muts:      muts,
			res:       res,
		})
	}
	res.PatchTime = time.Since(start)

	// ---- Verify: the incremental patch must be byte-identical to a
	// full part-parallel rebuild of the same (graph, assignment). ----
	if st.cfg.VerifyPatches && !res.FullRebuild {
		full, err := bsp.BuildSubgraphs(newG, &partition.Assignment{K: st.k, Parts: newParts})
		if err != nil {
			return nil, fmt.Errorf("live: verification rebuild: %w", err)
		}
		for p := range full {
			if !sameShard(newSubs[p], full[p]) {
				return nil, fmt.Errorf("live: patch diverges from full rebuild on part %d (epoch %d): invariant violation",
					p, st.stats.Epoch+1)
			}
		}
	}

	// ---- Swap, then commit: a failed swap leaves the state as it was. ----
	epoch, err := swap(newSubs)
	if err != nil {
		return nil, fmt.Errorf("live: swap epoch: %w", err)
	}
	st.g = newG
	st.parts = newParts
	st.sets = finalSets
	st.subs = newSubs
	rf := st.rf()
	drift := 0.0
	if st.baselineRF > 0 {
		drift = rf/st.baselineRF - 1
	}
	needs := drift > driftThreshold

	st.stats.Epoch = epoch
	st.stats.Batches++
	st.stats.Inserts += int64(inserts)
	st.stats.Deletes += int64(deletes)
	st.stats.PartsRebuilt += int64(res.PartsRebuilt)
	st.stats.PartsPatched += int64(res.PartsPatched)
	st.stats.PartsReused += int64(res.PartsReused)
	if res.FullRebuild {
		st.stats.FullRebuilds++
	}
	st.stats.RF = rf
	st.stats.Drift = drift
	st.stats.NeedsRepartition = needs

	res.Epoch = epoch
	res.RF = rf
	res.Drift = drift
	res.NeedsRepartition = needs
	return res, nil
}

// patchIn carries the per-batch patch inputs.
type patchIn struct {
	newG      *graph.Graph
	buckets   [][]int32
	affected  []bool
	finalSets []partition.Bitset
	muts      []Mutation
	res       *ApplyResult
}

// patch is the incremental path: rebuild the affected parts with BuildPart
// and row-patch the unaffected parts whose replica-peer or degree rows
// changed, sharing everything else. finalSets holds every part's
// post-batch coverage, installed before any peer derivation reads it (a
// part's peers depend on every other part's coverage).
func (st *State) patch(in patchIn) []*bsp.Subgraph {
	k, n := st.k, st.n

	// Coverage-changed vertices: word-wise diff of each affected part's
	// pre-batch set vs its recomputed one.
	changed := partition.NewBitset(n)
	for p := 0; p < k; p++ {
		if !in.affected[p] {
			continue
		}
		old := st.sets[p]
		for w := range changed {
			changed[w] |= old[w] ^ in.finalSets[p][w]
		}
	}
	// Degree-changed vertices: mutation endpoints whose global degree
	// actually moved (an insert+delete pair can cancel out).
	for _, m := range in.muts {
		for _, v := range [2]graph.VertexID{m.Src, m.Dst} {
			if st.g.OutDegree(v) != in.newG.OutDegree(v) || st.g.InDegree(v) != in.newG.InDegree(v) {
				changed.Set(int(v))
			}
		}
	}
	var patchList []int
	changed.Range(func(v int) { patchList = append(patchList, v) })

	partsOf := func(v graph.VertexID) []int32 {
		var out []int32
		for p := 0; p < k; p++ {
			if in.finalSets[p].Get(int(v)) {
				out = append(out, int32(p))
			}
		}
		return out
	}

	// Affected parts rebuild from their buckets; untouched parts covering
	// a changed vertex get copy-on-write row patches; everything else is
	// carried over by pointer. Old subgraphs are never written — jobs on
	// earlier epochs keep reading them.
	newSubs := make([]*bsp.Subgraph, k)
	var rebuilt, patched, reused atomic.Int64
	bsp.RunParts(runtime.GOMAXPROCS(0), k, func(p int) {
		if in.affected[p] {
			newSubs[p] = bsp.BuildPart(in.newG, p, k, in.buckets[p], in.finalSets[p], partsOf, nil)
			rebuilt.Add(1)
			return
		}
		old := st.subs[p]
		var rows []int32
		for _, v := range patchList {
			if l, ok := old.LocalOf(graph.VertexID(v)); ok {
				rows = append(rows, l)
			}
		}
		if len(rows) == 0 {
			newSubs[p] = old
			reused.Add(1)
			return
		}
		newSubs[p] = old.PatchRows(rows, in.newG, partsOf)
		patched.Add(1)
	})
	in.res.PartsRebuilt = int(rebuilt.Load())
	in.res.PartsPatched = int(patched.Load())
	in.res.PartsReused = int(reused.Load())
	return newSubs
}

// sameShard reports whether two subgraphs encode to the same EBVS shard
// bytes — the byte-identity check between the patch and rebuild paths.
// The shard holds every stored column; the tables it leaves out are
// derived from them.
func sameShard(a, b *bsp.Subgraph) bool {
	var ea, eb bytes.Buffer
	if bsp.WriteSubgraph(&ea, a) != nil || bsp.WriteSubgraph(&eb, b) != nil {
		return false
	}
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}
