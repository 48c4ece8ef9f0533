package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runRecord is one line of a run set, as bench/collect.sh writes them:
// which workload and seed ran, and the benchmark's result line.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

func readSet(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// The verdict rule: a gain needs at least minPairs pairs, the new side
// winning winShare of them, and the medians further apart than the
// base's own quartile spread; a regression is a median worse by more
// than the metric's bound, unresolved when the base's spread exceeds the
// bound unless every new run is worse than every base run.
const (
	minPairs = 10
	winShare = 0.9
)

// comparison is one metric on one workload across the two sets.
type comparison struct {
	base, next     []float64
	pairs, wins    int
	losses         int
	baseQ1, baseQ3 float64
	nextQ1, nextQ3 float64
}

func compareMetric(m metricSpec, base, next []runRecord) (comparison, bool) {
	var c comparison
	bySeed := map[int64]float64{}
	for _, r := range base {
		if mv, ok := r.Result.Metrics[m.Name]; ok {
			c.base = append(c.base, mv.Value)
			bySeed[r.Seed] = mv.Value
		}
	}
	for _, r := range next {
		mv, ok := r.Result.Metrics[m.Name]
		if !ok {
			continue
		}
		c.next = append(c.next, mv.Value)
		b, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		c.pairs++
		switch d := better(m, mv.Value, b); {
		case d > 0:
			c.wins++
		case d < 0:
			c.losses++
		}
	}
	if len(c.base) == 0 || len(c.next) == 0 {
		return c, false
	}
	c.baseQ1, c.baseQ3 = quartiles(c.base)
	c.nextQ1, c.nextQ3 = quartiles(c.next)
	return c, true
}

// better is positive when a beats b in the metric's direction, negative
// when it loses, and 0 on a tie.
func better(m metricSpec, a, b float64) float64 {
	if m.Better == "lower" {
		return b - a
	}
	return a - b
}

func (c comparison) verdict(m metricSpec) string {
	bm, nm := median(c.base), median(c.next)
	iqr := c.baseQ3 - c.baseQ1
	apart := math.Abs(nm-bm) > iqr
	if c.pairs >= minPairs && float64(c.wins) >= winShare*float64(c.pairs) && apart && better(m, nm, bm) > 0 {
		return "gain"
	}
	spread := ratio(iqr, math.Abs(bm))
	if m.Bound > 0 {
		if better(m, nm, bm) < -m.Bound*math.Abs(bm) {
			if spread > m.Bound && !allWorse(m, c.next, c.base) {
				return "unresolved"
			}
			return "regression"
		}
		if spread > m.Bound {
			return "unresolved"
		}
	} else if c.pairs >= minPairs && float64(c.losses) >= winShare*float64(c.pairs) && apart {
		return "regression"
	}
	if c.pairs < minPairs && better(m, nm, bm) > 0 && apart {
		return "unresolved"
	}
	return "no change"
}

// allWorse reports whether every value of next is worse than every
// value of base.
func allWorse(m metricSpec, next, base []float64) bool {
	for _, n := range next {
		for _, b := range base {
			if better(m, n, b) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareSets prints, per workload and metric, both sets' medians and
// quartiles, the share of seed-matched pairs the new set won, and the
// verdict.
func compareSets(root, basePath, newPath string, w io.Writer) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	base, err := readSet(basePath)
	if err != nil {
		return err
	}
	next, err := readSet(newPath)
	if err != nil {
		return err
	}
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	fmt.Fprintf(w, "%-14s %-36s %14s %31s %14s %31s %7s  %s\n",
		"workload", "metric", "base median", "base [q1, q3]", "new median", "new [q1, q3]", "wins", "verdict")
	for _, wl := range spec.Workloads {
		b, n := base[wl.Name], next[wl.Name]
		if len(b) == 0 || len(n) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %d base runs (%d failed ops), %d new runs (%d failed ops)\n",
			wl.Name, len(b), failedOps(b), len(n), failedOps(n))
		for _, m := range metrics {
			c, ok := compareMetric(m, b, n)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-14s %-36s %14.6g [%14.6g, %14.6g] %14.6g [%14.6g, %14.6g] %3d/%-3d  %s\n",
				wl.Name, m.Name, median(c.base), c.baseQ1, c.baseQ3, median(c.next), c.nextQ1, c.nextQ3,
				c.wins, c.pairs, c.verdict(m))
		}
	}
	return nil
}

func failedOps(rs []runRecord) int {
	n := 0
	for _, r := range rs {
		n += r.Result.Failed
	}
	return n
}
