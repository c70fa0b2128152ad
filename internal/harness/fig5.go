package harness

import (
	"context"
	"fmt"
	"io"

	"ebv/internal/core"
)

// Fig5Curve is one replication-factor growth curve: EBV with or without
// sorting, on one graph, for one subgraph count.
type Fig5Curve struct {
	Graph     string
	Variant   string // "sort" or "unsort"
	Subgraphs int
	// EdgesProcessed[i] and ReplicationFactor[i] are the sampled points.
	EdgesProcessed    []int
	ReplicationFactor []float64
}

// Final returns the curve's final replication factor.
func (c Fig5Curve) Final() float64 {
	if len(c.ReplicationFactor) == 0 {
		return 0
	}
	return c.ReplicationFactor[len(c.ReplicationFactor)-1]
}

// Fig5Result reproduces Figure 5: replication-factor growth curves of
// EBV-sort vs EBV-unsort on the power-law analogues with 4/8/16/32
// subgraphs.
type Fig5Result struct {
	Curves []Fig5Curve
}

// Curve returns the requested curve.
func (r *Fig5Result) Curve(graphName, variant string, subgraphs int) (Fig5Curve, bool) {
	for _, c := range r.Curves {
		if c.Graph == graphName && c.Variant == variant && c.Subgraphs == subgraphs {
			return c, true
		}
	}
	return Fig5Curve{}, false
}

// Fig5SubgraphCounts returns the paper's subgraph counts for Figure 5.
func Fig5SubgraphCounts() []int { return []int{4, 8, 16, 32} }

// Fig5 runs EBV-sort and EBV-unsort on the three power-law analogues,
// sampling the replication factor along the edge stream.
func Fig5(ctx context.Context, opt Options) (*Fig5Result, error) {
	res := &Fig5Result{}
	for _, analogue := range PowerLawAnalogues() {
		g, err := Graph(analogue, opt)
		if err != nil {
			return nil, err
		}
		sampleEvery := g.NumEdges() / 50
		if sampleEvery < 1 {
			sampleEvery = 1
		}
		for _, k := range Fig5SubgraphCounts() {
			for _, variant := range []struct {
				name  string
				order core.Order
			}{{"sort", core.OrderSorted}, {"unsort", core.OrderInput}} {
				curve := Fig5Curve{
					Graph:     analogue.String(),
					Variant:   variant.name,
					Subgraphs: k,
				}
				e := core.New(
					core.WithOrder(variant.order),
					core.WithGrowthTracking(sampleEvery, func(processed int, rf float64) {
						curve.EdgesProcessed = append(curve.EdgesProcessed, processed)
						curve.ReplicationFactor = append(curve.ReplicationFactor, rf)
					}),
				)
				if _, err := e.Partition(ctx, g, k); err != nil {
					return nil, fmt.Errorf("harness: fig5 %s k=%d: %w", analogue, k, err)
				}
				res.Curves = append(res.Curves, curve)
			}
		}
	}
	return res, nil
}

// Print renders, per graph and subgraph count, the sampled growth curve
// endpoints plus a compact sparkline of the sort variant.
func (r *Fig5Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"Figure 5: replication factor growth (EBV-sort vs EBV-unsort)"); err != nil {
		return err
	}
	t := newTable("Graph", "p", "final RF sort", "final RF unsort", "sort curve (RF at 25/50/75/100% of edges)")
	byKey := map[string]Fig5Curve{}
	for _, c := range r.Curves {
		byKey[fmt.Sprintf("%s/%d/%s", c.Graph, c.Subgraphs, c.Variant)] = c
	}
	for _, c := range r.Curves {
		if c.Variant != "sort" {
			continue
		}
		unsort := byKey[fmt.Sprintf("%s/%d/unsort", c.Graph, c.Subgraphs)]
		quarters := ""
		if n := len(c.ReplicationFactor); n >= 4 {
			quarters = fmt.Sprintf("%.2f / %.2f / %.2f / %.2f",
				c.ReplicationFactor[n/4-1], c.ReplicationFactor[n/2-1],
				c.ReplicationFactor[3*n/4-1], c.ReplicationFactor[n-1])
		}
		t.addRowf("%s\t%d\t%.3f\t%.3f\t%s",
			c.Graph, c.Subgraphs, c.Final(), unsort.Final(), quarters)
	}
	return t.write(w)
}
