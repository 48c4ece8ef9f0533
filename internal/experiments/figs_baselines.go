package experiments

import (
	"context"
	"fmt"

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
	systems := func() []sim.System {
		return []sim.System{sim.SPP(), sim.Chimera(), sim.HHP(), sim.Fastswap(), sim.HoPP()}
	}
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
	// Unit 2i is workload i's no-prefetch run, unit 2i+1 its comparison.
	streams := o.freeze(fig16Workloads(o)...)
	nones := make([]sim.Metrics, len(streams))
	cmps := make([]sim.Comparison, len(streams))
	err := sim.Fan(ctx, 2*len(streams), func(ctx context.Context, k int) error {
		s := streams[k/2]
		var err error
		if k%2 == 0 {
			nones[k/2], err = o.runOne(ctx, sim.NoPrefetch(), s.Replay(), 0.5)
		} else {
			cmps[k/2], err = o.compareAll(ctx, s.Replay(), 0.5, systems()...)
		}
		if err != nil {
			return fmt.Errorf("baselines %s: %w", s.Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cmp := range cmps {
		perfRow := []string{cmp.Workload}
		remoteRow := []string{cmp.Workload}
		for j := range cmp.Results {
			perfRow = append(perfRow, f3(cmp.Normalized(j)))
			remoteRow = append(remoteRow, f3(cmp.Results[j].RemoteAccessRatio(nones[i])))
		}
		perf.Rows = append(perf.Rows, perfRow)
		remote.Rows = append(remote.Rows, remoteRow)
	}
	return []Table{perf, remote}, nil
}
