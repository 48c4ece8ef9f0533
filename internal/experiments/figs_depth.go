package experiments

import (
	"context"

	"hopp/internal/sim"
)

// Fig16 regenerates the Depth-N comparison: fixed-depth early PTE
// injection does not reliably beat Fastswap, while HoPP does.
func Fig16(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 16: normalized performance of Depth-16, Depth-32, Fastswap, HoPP (50% local)",
		Header: []string{"Workload", "Depth-16", "Depth-32", "Fastswap", "HoPP"},
		Note:   "paper: Depth-N loses to Fastswap on some workloads (e.g. NPB-MG); HoPP is the best of the four",
	}
	cmps, err := o.compare(ctx, "fig16", fig16Suite, []float64{0.5}, sim.DepthN(16), sim.DepthN(32), sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	for _, cmp := range cmps[0] {
		t.Rows = append(t.Rows, []string{
			cmp.Workload,
			f3(cmp.Normalized(0)), f3(cmp.Normalized(1)),
			f3(cmp.Normalized(2)), f3(cmp.Normalized(3)),
		})
	}
	return []Table{t}, nil
}

// Fig17 regenerates the remote access study: demand remote reads of each
// system normalized to a no-prefetch Fastswap run.
func Fig17(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 17: remote accesses normalized to Fastswap-without-prefetching",
		Header: []string{"Workload", "Depth-16", "Depth-32", "Fastswap", "HoPP"},
		Note:   "paper: Depth-N leaves the most remote accesses (rigid algorithm); HoPP need not have the fewest to win — early injection does the rest",
	}
	gens := o.gens(fig16Suite...)
	grid, err := o.runGrid(ctx, "fig17", gens, 0.5,
		sim.NoPrefetch(), sim.DepthN(16), sim.DepthN(32), sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	for i, runs := range grid {
		row := []string{gens[i].Name()}
		for _, met := range runs[1:] {
			row = append(row, f3(met.RemoteAccessRatio(runs[0])))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
