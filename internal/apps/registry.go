package apps

import (
	"fmt"
	"math"
	"strings"

	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// Names lists the canonical app names ByName accepts, as flag help and the
// unknown-app error print them.
const Names = "CC, PR, SSSP, WSSSP, Aggregate"

// Params carries every registry program's by-name parameters as plain
// data, so a job can cross a wire or a command line as (name, Params).
// Zero values select each program's defaults.
type Params struct {
	Iterations int     // PR iteration count (0 = 10)
	Damping    float64 // PR damping factor (0 = 0.85)
	Source     int64   // SSSP/WSSSP source vertex (a graph.VertexID: 0..math.MaxUint32)
	Layers     int     // Aggregate layer count (0 = 2)
}

// ByName is the one app registry: the CLIs, cluster job specs, the HTTP
// service and the experiment harness all resolve program names here
// (case-insensitive), so every surface accepts the same names and rejects
// an unknown one, or a parameter out of its program's range, with the same
// error.
func ByName(name string, p Params) (bsp.Program, error) {
	upper := strings.ToUpper(name)
	switch upper {
	case "CC":
		return &CC{}, nil
	case "PR", "PAGERANK":
		// Out of range, the program would run to ranks that are not
		// PageRank, or silently with the default iteration count.
		if !(p.Damping >= 0 && p.Damping <= 1) {
			return nil, fmt.Errorf("apps: damping %g out of range: must be in [0, 1] (0 for the default)", p.Damping)
		}
		if p.Iterations < 0 {
			return nil, fmt.Errorf("apps: iterations %d out of range: must be >= 0 (0 for the default)", p.Iterations)
		}
		return &PageRank{Iterations: p.Iterations, Damping: p.Damping}, nil
	case "SSSP", "WSSSP":
		// Converting an out-of-range source would silently run from
		// another vertex (4294967296 wraps to 0).
		if p.Source < 0 || p.Source > math.MaxUint32 {
			return nil, fmt.Errorf("apps: source %d out of range: vertex ids are 0..%d", p.Source, uint32(math.MaxUint32))
		}
		return &SSSP{Source: graph.VertexID(p.Source), Weighted: upper == "WSSSP"}, nil
	case "AGG", "AGGREGATE":
		if p.Layers < 0 {
			return nil, fmt.Errorf("apps: layers %d out of range: must be >= 0 (0 for the default)", p.Layers)
		}
		return &Aggregate{Layers: p.Layers}, nil
	}
	return nil, fmt.Errorf("apps: unknown app %q (valid: %s)", name, Names)
}
