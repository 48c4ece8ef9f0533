// Quickstart: run one workload under Fastswap and HoPP with half its
// working set disaggregated, and print the headline comparison — the
// smallest end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"hopp"
)

func main() {
	// A K-means-style scan workload: 12 MB of points, 3 iterations.
	gen := hopp.Workloads.OMPKMeans(3072, 3)

	// Compare runs the workload with all memory local (the CT_local
	// baseline), then under each system with the cgroup limited to 50%
	// of the footprint.
	cmp, err := hopp.Compare(context.Background(), gen, 0.5, 1, hopp.Fastswap(), hopp.HoPP())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s, footprint %d pages, local baseline %v\n\n",
		cmp.Workload, gen.FootprintPages(), cmp.Local.CompletionTime)
	fmt.Printf("%-10s %12s %10s %10s %10s\n", "system", "completion", "normperf", "accuracy", "coverage")
	for i, met := range cmp.Results {
		fmt.Printf("%-10s %12v %10.3f %10.3f %10.3f\n",
			met.System, met.CompletionTime, cmp.Normalized(i),
			met.PrefetcherAccuracy(), met.Coverage())
	}

	hoppMet, _ := cmp.Find("HoPP")
	fastMet, _ := cmp.Find("Fastswap")
	fmt.Printf("\nHoPP speedup over Fastswap: %.1f%%\n", hoppMet.SpeedupOver(fastMet)*100)
	fmt.Printf("HoPP page faults avoided:   %d of %d demand requests became DRAM hits\n",
		hoppMet.InjectedHits, hoppMet.MajorFaults+hoppMet.PrefetchHits())
}
