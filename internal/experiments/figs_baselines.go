package experiments

import (
	"context"

	"hopp/internal/sim"
)

// Baselines drops the related-work prefetchers hosted by the substrate
// — SPP (signature-path), Chimera (accuracy-arbitrated hybrid), and
// HHP (offset pattern tables) — into the Fig. 16/17 frames beside
// Fastswap and HoPP: normalized performance against the all-local run,
// and remote accesses normalized to no-prefetch. Not a paper figure;
// the registry makes the same comparison servable ad hoc
// (system=spp/chimera/hhp in runs and sweeps), this experiment is the
// canonical fixed-seed table of it.
func Baselines(ctx context.Context, o Options) ([]Table, error) {
	perf := Table{
		Title:  "Feedback baselines: normalized performance of SPP, Chimera, HHP vs Fastswap, HoPP (50% local)",
		Header: []string{"Workload", "SPP", "Chimera", "HHP", "Fastswap", "HoPP"},
		Note:   "demand-path schemes trained by the prefetch feedback seams; HoPP's hardware hot-page stream stays ahead of all of them",
	}
	remote := Table{
		Title:  "Feedback baselines: remote accesses normalized to no-prefetch",
		Header: []string{"Workload", "SPP", "Chimera", "HHP", "Fastswap", "HoPP"},
		Note:   "lower is fewer demand+prefetch remote reads per useful page; confidence throttling trades coverage for accuracy",
	}
	// Results[0] is each workload's no-prefetch run, the remote-access
	// baseline; the five compared systems follow it.
	cmps, err := o.compare(ctx, "baselines", fig16Suite, []float64{0.5},
		sim.NoPrefetch(), sim.SPP(), sim.Chimera(), sim.HHP(), sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	for _, cmp := range cmps[0] {
		perfRow := []string{cmp.Workload}
		remoteRow := []string{cmp.Workload}
		for j := 1; j < len(cmp.Results); j++ {
			perfRow = append(perfRow, f3(cmp.Normalized(j)))
			remoteRow = append(remoteRow, f3(cmp.Results[j].RemoteAccessRatio(cmp.Results[0])))
		}
		perf.Rows = append(perf.Rows, perfRow)
		remote.Rows = append(remote.Rows, remoteRow)
	}
	return []Table{perf, remote}, nil
}
