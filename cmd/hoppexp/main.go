// Command hoppexp regenerates the paper's tables and figures.
//
// Usage:
//
//	hoppexp -list                 # show every experiment ID
//	hoppexp -exp fig9             # regenerate one table/figure
//	hoppexp -exp all              # regenerate everything (minutes)
//	hoppexp -exp fig9 -quick      # ~4x smaller workloads
//	hoppexp -exp fig9 -seed 42    # different randomness
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"hopp"
	"hopp/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "", "experiment ID (breakdown, table2..table5, fig1..fig22) or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quick    = flag.Bool("quick", false, "shrink workloads ~4x")
		seed     = flag.Int64("seed", 1, "randomness seed")
		parallel = flag.Bool("parallel", false, "overlap whole experiments; each already runs its simulations concurrently (output order preserved)")
	)
	flag.Parse()

	if *list {
		printExperiments(os.Stdout)
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "hoppexp: missing -exp; available experiments:")
		printExperiments(os.Stderr)
		return 2
	}

	opts := hopp.ExperimentOptions{Seed: *seed, Quick: *quick}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range hopp.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	if !*parallel {
		for _, id := range ids {
			start := time.Now()
			if err := hopp.RunExperiment(id, opts, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hoppexp: %s: %v\n", id, err)
				return 1
			}
			fmt.Printf("[%s finished in %.1fs]\n\n", id, time.Since(start).Seconds())
		}
		return 0
	}

	// Parallel mode: experiments are independent and deterministic, so
	// they fan out over the service worker pool; output is buffered per
	// experiment and printed in submission order.
	type result struct {
		out bytes.Buffer
		err error
		dur time.Duration
	}
	results := make([]result, len(ids))
	pool := service.NewPool(0)
	for i, id := range ids {
		if err := pool.Submit(func() {
			start := time.Now()
			results[i].err = hopp.RunExperiment(id, opts, &results[i].out)
			results[i].dur = time.Since(start)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "hoppexp: %s: %v\n", id, err)
			return 1
		}
	}
	pool.Close() // drains: every submitted experiment has finished
	for i, id := range ids {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "hoppexp: %s: %v\n", id, results[i].err)
			return 1
		}
		os.Stdout.Write(results[i].out.Bytes())
		fmt.Printf("[%s finished in %.1fs]\n\n", id, results[i].dur.Seconds())
	}
	return 0
}

func printExperiments(w *os.File) {
	for _, e := range hopp.Experiments() {
		fmt.Fprintf(w, "  %-8s %s\n", e.ID, e.Title)
	}
}
