// Command hoppsim runs one workload under one remote-memory system and
// prints the §VI-A metrics. The request resolves, is configured and runs
// through service.Simulate — the hoppd daemon's own run path — so
// anything runnable here is submittable there with the same result, and
// vice versa. Demand-path systems accept the prefetch registry's
// parameterized spec forms — "depth-16" or "spp?lookahead=6" —
// alongside the bare names -list prints.
//
// Usage:
//
//	hoppsim -workload omp-kmeans -system hopp -frac 0.5
//	hoppsim -workload npb-mg -system fastswap -frac 0.25 -seed 9
//	hoppsim -workload quicksort -system "spp?lookahead=6" -frac 0.5
//	hoppsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hopp/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 on success, 1 on a failed simulation, 2 on bad
// usage (including a workload, system or -frac the catalog rejects).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hoppsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl    = fs.String("workload", "omp-kmeans", "workload name")
		sys   = fs.String("system", "hopp", "system name or prefetch spec (e.g. spp?lookahead=6)")
		frac  = fs.Float64("frac", 0.5, "local memory as a fraction of the footprint (0 = all local)")
		seed  = fs.Int64("seed", 1, "randomness seed")
		quick = fs.Bool("quick", false, "shrink the workload ~4x (and the cache hierarchy with it)")
		list  = fs.Bool("list", false, "list workloads and systems")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "hoppsim: unexpected arguments %q\n", fs.Args())
		return 2
	}

	workloads := strings.Join(service.WorkloadNames(), ", ")
	systems := strings.Join(service.SystemNames(), ", ")
	if *list {
		fmt.Fprintln(stdout, "workloads:", workloads)
		fmt.Fprintln(stdout, "systems:  ", systems)
		return 0
	}

	ctx := context.Background()
	req := service.RunRequest{Workload: *wl, System: *sys, Frac: frac, Seed: *seed, Quick: *quick}
	met, err := service.Simulate(ctx, req)
	if err != nil {
		return fail(stderr, err, workloads, systems)
	}
	// The CT_local baseline: the same request with all memory local and
	// no prefetching.
	zero := 0.0
	req.System, req.Frac = "noprefetch", &zero
	local, err := service.Simulate(ctx, req)
	if err != nil {
		return fail(stderr, err, workloads, systems)
	}
	gen, _ := service.NewWorkload(*wl, *quick)

	fmt.Fprintf(stdout, "workload          %s (%d pages footprint)\n", gen.Name(), gen.FootprintPages())
	fmt.Fprintf(stdout, "system            %s, local memory %.0f%%\n", met.System, *frac*100)
	fmt.Fprintf(stdout, "completion time   %v  (local: %v)\n", met.CompletionTime, local.CompletionTime)
	fmt.Fprintf(stdout, "normalized perf   %.3f\n", met.NormalizedPerformance(local))
	fmt.Fprintf(stdout, "accesses          %d (cache %d / dram %d)\n", met.Accesses, met.CacheHits, met.DRAMHits)
	fmt.Fprintf(stdout, "faults            minor %d, major %d\n", met.MinorFault, met.MajorFaults)
	fmt.Fprintf(stdout, "prefetch          issued %d, swapcache hits %d, injected hits %d, late %d, evicted %d\n",
		met.PrefetchIssued, met.SwapCacheHits, met.InjectedHits, met.LateHits, met.PrefetchEvicted)
	fmt.Fprintf(stdout, "accuracy          %.3f (prefetcher: %.3f)\n", met.Accuracy(), met.PrefetcherAccuracy())
	fmt.Fprintf(stdout, "coverage          %.3f (dram-hit %.3f, swapcache %.3f)\n",
		met.Coverage(), met.DRAMHitCoverage(), met.SwapCacheHitCoverage())
	fmt.Fprintf(stdout, "remote            reads %d, writes %d\n", met.RemoteReads, met.RemoteWrites)
	if met.HasCore {
		fmt.Fprintf(stdout, "hot pages         %d emitted; HPD bw %.3f%%, RPT bw %.5f%%, RPT cache hit %.3f\n",
			met.HotPagesEmitted, met.HPDBandwidth*100, met.RPTBandwidth*100, met.RPTCacheHitRate)
		fmt.Fprintf(stdout, "tiers             issued SSP/LSP/RSP %d/%d/%d, hits %d/%d/%d, mean lead %v\n",
			met.IssuedByTier[1], met.IssuedByTier[2], met.IssuedByTier[3],
			met.HitsByTier[1], met.HitsByTier[2], met.HitsByTier[3], met.MeanLead)
		fmt.Fprintf(stdout, "timeliness        <10µs:%d <40µs:%d <100µs:%d <1ms:%d <5ms:%d ≥5ms:%d\n",
			met.LeadBuckets[0], met.LeadBuckets[1], met.LeadBuckets[2],
			met.LeadBuckets[3], met.LeadBuckets[4], met.LeadBuckets[5])
	}
	return 0
}

// fail reports a Simulate error: 2 for a request the catalog rejects,
// naming what it accepts, 1 for a simulation that failed.
func fail(stderr io.Writer, err error, workloads, systems string) int {
	switch {
	case errors.Is(err, service.ErrUnknownWorkload):
		fmt.Fprintf(stderr, "hoppsim: %v (have: %s)\n", err, workloads)
	case errors.Is(err, service.ErrUnknownSystem):
		fmt.Fprintf(stderr, "hoppsim: %v (have: %s)\n", err, systems)
	case errors.Is(err, service.ErrBadFrac):
		fmt.Fprintln(stderr, "hoppsim:", err)
	default:
		fmt.Fprintln(stderr, "hoppsim:", err)
		return 1
	}
	return 2
}
