package service

import (
	"math"
	"reflect"
	"testing"
)

// FuzzRequestNormalize fills run, sweep and ingest requests with
// arbitrary names, seeds and window lengths, and a frac taken from raw
// float bits (NaN, infinities, negative zero and subnormals included).
// Whatever the input:
//   - no Normalize panics;
//   - every accepted frac lies in [0, 1);
//   - normalizing a normalized request changes nothing: the same run
//     key, the same ingest request;
//   - each sweep point's key is the key of the same standalone run.
func FuzzRequestNormalize(f *testing.F) {
	f.Add("sequential", "fastswap", math.Float64bits(0.25), true, int64(1), true, 0)
	f.Add(" NPB-MG ", " SPP?lookahead=4&threshold=25 ", math.Float64bits(math.NaN()), true, int64(-3), false, 7)
	f.Add("hpl", "depth?n=16", math.Float64bits(math.Copysign(0, -1)), true, int64(0), false, 1<<21)
	f.Add("graphx-pr", "hopp", math.Float64bits(1), false, int64(9), true, -1)
	f.Add("quicksort", "leap", math.Float64bits(math.Inf(-1)), true, int64(2), false, 16)
	f.Fuzz(func(t *testing.T, workload, system string, fracBits uint64, hasFrac bool, seed int64, quick bool, window int) {
		frac := math.Float64frombits(fracBits)
		var fracPtr *float64
		var fracs []float64
		if hasFrac {
			fracPtr, fracs = &frac, []float64{frac}
		}
		inRange := func(what string, f *float64) {
			t.Helper()
			if f == nil || !(*f >= 0 && *f < 1) {
				t.Fatalf("%s accepted frac %v, outside [0, 1)", what, f)
			}
		}

		run := RunRequest{Workload: workload, System: system, Frac: fracPtr, Seed: seed, Quick: quick}
		norm, key, runErr := run.Normalize()
		if runErr == nil {
			inRange("RunRequest", norm.Frac)
			if _, again, err := norm.Normalize(); err != nil || again != key {
				t.Fatalf("renormalizing %+v: key %q, %v; want %q", norm, again, err, key)
			}
		}

		sweep := SweepRequest{Workloads: []string{workload}, Systems: []string{system}, Fracs: fracs, Seeds: []int64{seed}, Quick: quick}
		if _, points, err := sweep.Points(); err == nil {
			if runErr != nil {
				t.Fatalf("sweep accepted a point the standalone run rejects: %v", runErr)
			}
			for _, p := range points {
				inRange("sweep point", p.Frac)
				if _, pkey, err := p.Normalize(); err != nil || pkey != key {
					t.Fatalf("sweep point %+v: key %q, %v; standalone run key %q", p, pkey, err, key)
				}
			}
		}

		ingest := IngestRequest{Workload: workload, System: system, Frac: fracPtr, Seed: seed, WindowRecords: window}
		if n, err := ingest.Normalize(); err == nil {
			inRange("IngestRequest", n.Frac)
			if again, err := n.Normalize(); err != nil || !reflect.DeepEqual(again, n) {
				t.Fatalf("renormalizing %+v: %+v, %v", n, again, err)
			}
		}
	})
}
