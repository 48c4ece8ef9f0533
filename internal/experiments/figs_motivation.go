package experiments

import (
	"context"
	"fmt"

	"hopp/internal/core"
	"hopp/internal/memsim"
	"hopp/internal/sim"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// Fig1 reproduces the Fig. 1 motivation: on two intertwined streams with
// interference pages, Leap's fault-history majority voting collapses
// while HoPP's full-trace training keeps accuracy and coverage high.
func Fig1(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 1: intertwined streams (stride 2 + stride 1 + interference)",
		Header: []string{"System", "Accuracy", "Coverage", "MajorFaults", "NormPerf"},
		Note:   "paper: Leap cannot derive stable strides from interleaved fault history; full memory trace can",
	}
	cmps, err := o.compare(ctx, "fig1", []string{"intertwined"}, []float64{0.5}, sim.Leap(), sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	cmp := cmps[0][0]
	for i, met := range cmp.Results {
		t.Rows = append(t.Rows, []string{
			met.System, f3(met.PrefetcherAccuracy()), f3(met.Coverage()),
			fmt.Sprintf("%d", met.MajorFaults), f3(cmp.Normalized(i)),
		})
	}
	return []Table{t}, nil
}

// trainOnPages feeds a page-visit trace to a fresh trainer and reports
// per-tier prediction counts.
func trainOnPages(pages []memsim.VPN, params core.Params) core.TrainerStats {
	tr := core.NewTrainer(params)
	for i, p := range pages {
		tr.Observe(vclock.Time(i)*1000, 1, p)
	}
	return tr.Stats()
}

// pageTrace extracts the page-visit sequence of a generator.
func pageTrace(gen workload.Generator, seed int64, max int) []memsim.VPN {
	gen.Reset(seed)
	var pages []memsim.VPN
	last := ^memsim.VPN(0)
	for len(pages) < max {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if p := a.Addr.Page(); p != last {
			pages = append(pages, p)
			last = p
		}
	}
	return pages
}

// Fig2 reproduces the Fig. 2 pattern study: a ladder stream's page trace
// and which tier identifies it.
func Fig2(ctx context.Context, o Options) ([]Table, error) {
	gen := workload.NewLadder(64, 4)
	pages := pageTrace(gen, o.Seed, 4096)
	base := pages[0]
	head := Table{
		Title:  "Fig. 2: ladder stream — first 18 page visits (relative VPN)",
		Header: []string{"t", "VPN"},
		Note:   "treads visit three unevenly spaced streams; the rise advances each by one page",
	}
	for i := 0; i < 18 && i < len(pages); i++ {
		head.Rows = append(head.Rows, []string{
			fmt.Sprintf("t%d", i+1),
			fmt.Sprintf("+%d", int64(pages[i])-int64(base)),
		})
	}
	stats := trainOnPages(pages, core.DefaultParams())
	tiers := Table{
		Title:  "Fig. 2 (cont.): predictions by tier on the ladder trace",
		Header: []string{"Tier", "Predictions"},
		Note:   "paper: ladders defeat SSP's dominant-stride test; LSP identifies them",
	}
	for _, tier := range []core.Tier{core.TierSSP, core.TierLSP, core.TierRSP} {
		tiers.Rows = append(tiers.Rows, []string{tier.String(), fmt.Sprintf("%d", stats.Predictions[tier])})
	}
	if stats.Predictions[core.TierLSP] == 0 {
		return nil, fmt.Errorf("fig2: LSP made no predictions on a ladder trace")
	}
	return []Table{head, tiers}, nil
}

// Fig3 reproduces the Fig. 3 pattern study for ripple streams.
func Fig3(ctx context.Context, o Options) ([]Table, error) {
	gen := workload.NewRipple(o.scale(1024), 2)
	pages := pageTrace(gen, o.Seed, 4096)
	base := pages[0]
	head := Table{
		Title:  "Fig. 3: ripple stream — first 18 page visits (relative VPN)",
		Header: []string{"t", "VPN"},
		Note:   "stride-1 advance distorted by out-of-order and hop-out-and-back accesses",
	}
	for i := 0; i < 18 && i < len(pages); i++ {
		head.Rows = append(head.Rows, []string{
			fmt.Sprintf("t%d", i+1),
			fmt.Sprintf("+%d", int64(pages[i])-int64(base)),
		})
	}
	stats := trainOnPages(pages, core.DefaultParams())
	tiers := Table{
		Title:  "Fig. 3 (cont.): predictions by tier on the ripple trace",
		Header: []string{"Tier", "Predictions"},
		Note:   "paper: ripples fall through SSP and LSP to RSP",
	}
	for _, tier := range []core.Tier{core.TierSSP, core.TierLSP, core.TierRSP} {
		tiers.Rows = append(tiers.Rows, []string{tier.String(), fmt.Sprintf("%d", stats.Predictions[tier])})
	}
	if stats.Predictions[core.TierRSP] == 0 {
		return nil, fmt.Errorf("fig3: RSP made no predictions on a ripple trace")
	}
	return []Table{head, tiers}, nil
}
