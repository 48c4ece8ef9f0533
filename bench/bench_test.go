package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// Every workload, at tiny scale, must finish with every check passing
// and report exactly the metrics BENCHMARK.json declares for its mode:
// measure fails on a metric declared but not measured or measured but
// not declared, so this pins the file and the program together in both
// directions.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := options{seed: 1, trace: traced, tiny: true, root: "..", tmp: t.TempDir(), log: io.Discard}
				res, _, err := measure(def, o)
				if err != nil {
					t.Fatalf("trace=%t: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%t: %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
				}
			}
		})
	}
}

// The prefetch decorator a traced run installs must see every fault and
// leave the simulated Metrics byte-identical.
func TestDecoratorLeavesMetricsIdentical(t *testing.T) {
	for _, sys := range append([]string{"hopp"}, schemes...) {
		p := catalogPoint("npb-mg", sys, 0.25, true)
		plain, err := runPoint(p, 7, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		timer := &schemeTimer{}
		dec, err := runPoint(p, 7, timer, false)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(plain.met)
		b, _ := json.Marshal(dec.met)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: decorated metrics differ:\n%s\n%s", sys, a, b)
		}
		if timer.fault.calls != float64(dec.met.MajorFaults) {
			t.Errorf("%s: decorator saw %g faults, the run had %d", sys, timer.fault.calls, dec.met.MajorFaults)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// definition the spread checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{4, 8}, 3, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// The compare verdicts: a gain needs ten pairs, nine in ten won, and a
// median shift beyond the base's quartile spread; a regression is a
// median worse than the bound allows; a spread wider than the bound
// leaves the metric unresolved.
func TestVerdicts(t *testing.T) {
	m := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	runs := func(vals ...float64) []runRecord {
		var rs []runRecord
		for i, v := range vals {
			rs = append(rs, runRecord{Seed: int64(i), Result: result{Metrics: map[string]metricOut{m.Name: {Value: v}}}})
		}
		return rs
	}
	steady := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name      string
		base, new []runRecord
		want      string
	}{
		{"same", steady, steady, "no change"},
		{"gain", steady, runs(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), "gain"},
		{"gain with too few pairs", steady[:5], runs(110, 111, 109, 110, 112), "unresolved"},
		{"regression", steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "regression"},
		{"small slowdown", steady, runs(96, 97, 95, 96, 98, 94, 96, 97, 95, 96), "no change"},
		{"noisy base", runs(50, 150, 60, 140, 70, 130, 80, 120, 90, 110), steady, "unresolved"},
	} {
		c, ok := compareMetric(m, tc.base, tc.new)
		if !ok {
			t.Fatalf("%s: no comparison", tc.name)
		}
		if got := c.verdict(m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
