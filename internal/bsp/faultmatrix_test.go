package bsp_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"regexp"
	"strings"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
)

// TestFaultMatrix sweeps, from one seed, app × Mem/TCP × width {1, 3} ×
// every fault kind (the wire kinds on TCP only), one fault per cell at a
// (worker, step) drawn inside the clean run, with replica verification on.
// Each cell must end within its deadline either byte-identical to the clean
// run or with an error naming the faulted worker and, for a fault the run
// detects, the step. A failing cell prints its seed and coordinates. CC
// runs on the road graph, whose three parts send and relabel enough rows
// for a dup or reorder to edit, and each of its kinds gets a second cell
// at worker 0, which unions every worker's link rows, at step 0, the
// exchange that delivers them.
func TestFaultMatrix(t *testing.T) {
	const seed, k = 2021, 3
	graphs := testGraphs(t)
	powerlaw, road := buildSubs(t, graphs["powerlaw"], core.New(), k), buildSubs(t, graphs["road"], core.New(), k)
	rnd := rand.New(rand.NewPCG(seed, 0))
	settled := goroutineGate(t)
	for _, app := range strings.Split(apps.Names, ", ") {
		subs := powerlaw
		if app == "CC" {
			subs = road
		}
		prog, err := apps.ByName(app, apps.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 3} {
			cfg := bsp.Config{ValueWidth: width}
			clean, err := bsp.Run(t.Context(), subs, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, mesh := range []string{"mem", "tcp"} {
				for kind := range numKinds {
					if kind >= flipBit && mesh == "mem" {
						continue
					}
					f := &fault{kind: kind, worker: rnd.IntN(k)}
					f.step = rnd.IntN(max(1, lastStep(clean, f)))
					f.id = strayTarget(t, subs[f.worker], clean)
					faultCell(t, fmt.Sprintf("seed %d %s/%s/w%d/%v", seed, app, mesh, width, f), mesh, subs, prog, cfg, f, clean)
					if app == "CC" { // the hub, at the step its union reads
						f := &fault{kind: kind, id: strayTarget(t, subs[0], clean)}
						faultCell(t, fmt.Sprintf("seed %d %s/%s/w%d/%v", seed, app, mesh, width, f), mesh, subs, prog, cfg, f, clean)
					}
				}
			}
		}
	}
	settled("the matrix")
}

// faultCell runs one cell of the matrix and fails t, naming the cell, if
// it ended any other way than the matrix allows. A missed deadline ends
// the sweep: every further cell could wait out its own.
func faultCell(t *testing.T, cell, mesh string, subs []*bsp.Subgraph, prog bsp.Program, cfg bsp.Config, f *fault, clean *bsp.Result) {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	res, err := runFault(ctx, t, mesh, subs, prog, cfg, f)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		t.Fatalf("%s: missed its deadline (%v)", cell, err)
	case !f.fired.Load():
		t.Errorf("%s: never fired (run error: %v)", cell, err)
		return
	case err == nil:
		if !res.Values.EqualValues(clean.Values) {
			t.Errorf("%s: values differ from the clean run, and no error", cell)
		}
		return
	}
	w, msg := f.worker, err.Error()
	var named bool
	switch {
	case f.kind <= closeJob:
		named = errors.Is(err, errInjected) && strings.HasPrefix(msg, fmt.Sprintf("bsp: worker %d: exchange step %d: ", w, f.at))
	case f.kind <= swapID:
		// Detected at the next superstep, or after the run by the
		// replica check.
		named = strings.HasPrefix(msg, fmt.Sprintf("bsp: worker %d: superstep %d: ", w, f.at+1)) ||
			strings.HasPrefix(msg, "bsp: replicas of vertex ") && regexp.MustCompile(fmt.Sprintf(`\bworker %d\b`, w)).MatchString(msg)
	case f.kind >= flipBit:
		// The worker fails in the exchange that was waiting when the
		// damaged bundle came: its step's, or the one before if it was
		// still collecting that one's.
		named = strings.HasPrefix(msg, fmt.Sprintf("bsp: worker %d: exchange step %d: ", w, f.at)) ||
			strings.HasPrefix(msg, fmt.Sprintf("bsp: worker %d: exchange step %d: ", w, f.at-1))
	}
	if !named {
		t.Errorf("%s: err = %v, want one naming the fault", cell, err)
	}
}

// lastStep bounds the step a fault of f's kind at f.worker is drawn below.
// A row kind fires at the first delivery from its step on with a batch from
// one source holding more rows than it edits; counting only the program
// rows, k-1 sources deliver one for sure once their total passes (k-1)
// times what the kind edits.
func lastStep(clean *bsp.Result, f *fault) int {
	if f.kind < dropRow || f.kind > swapID {
		return clean.Steps
	}
	for s := clean.Steps - 1; s >= 0; s-- {
		if clean.Workers[f.worker].Received[s] > int64((len(clean.Workers)-1)*f.rows()) {
			return s + 1
		}
	}
	return 0
}

// strayTarget returns the vertex sub holds but does not replicate with the
// largest clean value (column 0): a row folded into it by mistake most
// likely lowers that value (an SSSP vertex the source does not reach, a
// high CC label), so a missing check shows as changed values.
func strayTarget(t *testing.T, sub *bsp.Subgraph, clean *bsp.Result) uint32 {
	best := unreplicated(t, sub)
	for l, gid := range sub.GlobalIDs {
		if len(sub.PeersOf(int32(l))) == 0 && clean.Values.Row(int(gid))[0] > clean.Values.Row(int(best))[0] {
			best = gid
		}
	}
	return best
}
