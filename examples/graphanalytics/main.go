// Graph analytics: sweep the four GraphX algorithms (the paper's 33 GB
// Spark workloads, scaled) across all five systems at the paper's
// one-third memory limit — a compact reproduction of the Fig. 12–14
// story: JVM-staged memory defeats fault-history prefetchers, while
// HoPP's full-trace training keeps its accuracy above 90%.
package main

import (
	"context"
	"fmt"
	"log"

	"hopp"
)

func main() {
	systems := []hopp.System{
		hopp.Fastswap(), hopp.Leap(), hopp.DepthN(32), hopp.HoPP(),
	}
	algos := []string{"BFS", "CC", "PR", "LP"}

	fmt.Printf("%-12s", "algorithm")
	for _, s := range systems {
		fmt.Printf(" %20s", s.Name)
	}
	fmt.Println("\n             (normalized performance / prefetcher accuracy)")

	for _, algo := range algos {
		gen := hopp.Workloads.GraphX(algo, 768)
		cmp, err := hopp.Compare(context.Background(), gen, 1.0/3, 1, systems...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s", "GraphX-"+algo)
		for i, met := range cmp.Results {
			fmt.Printf("        %.3f / %.3f", cmp.Normalized(i), met.PrefetcherAccuracy())
		}
		fmt.Println()
	}

	fmt.Println("\nExpected shape (paper Figs. 12-14): HoPP has the best normalized")
	fmt.Println("performance and >0.9 accuracy; Leap suffers from interleaved fault")
	fmt.Println("history; Depth-N wastes bandwidth on the irregular gather traffic.")
}
