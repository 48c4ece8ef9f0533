package service

import (
	"context"
	"testing"
	"time"
)

// BenchmarkSweepVsIndividual times one sweep submission of an 8-point
// grid against the same 8 points submitted as individual runs on an
// identical fresh engine, and reports the wall-clock ratio. The sweep's
// edge is structural: each of the two workload streams is generated
// once and shared across its four points, where the individual path
// regenerates the stream per run.
func BenchmarkSweepVsIndividual(b *testing.B) {
	grid := SweepRequest{
		Workloads: []string{"sequential", "random"},
		Systems:   []string{"fastswap", "noprefetch"},
		Fracs:     []float64{0.25, 0.5},
		Seeds:     []int64{1},
		Quick:     true,
	}
	_, points, err := grid.Points()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var sweepNS, indivNS time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Fresh engines per iteration: the result cache must not carry
		// work across arms or iterations.
		e := NewEngine(Options{Workers: 4})
		t0 := time.Now()
		st, err := e.SubmitSweep(grid)
		if err != nil {
			b.Fatal(err)
		}
		if final, err := e.Wait(ctx, st.ID); err != nil || final.State != StateDone {
			b.Fatalf("sweep: %v %+v", err, final)
		}
		sweepNS += time.Since(t0)
		// The structural claim under test: 8 points share 2 generated
		// streams (one per distinct workload×seed). If this drifts, the
		// sweep is regenerating streams and the comparison is void.
		if built := e.streamsBuilt.Load(); built != 2 {
			b.Fatalf("sweep built %d streams, want 2 (one per distinct workload)", built)
		}
		if err := e.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}

		e = NewEngine(Options{Workers: 4})
		t0 = time.Now()
		ids := make([]string, 0, len(points))
		for _, p := range points {
			st, err := e.Submit(p)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			if final, err := e.Wait(ctx, id); err != nil || final.State != StateDone {
				b.Fatalf("individual: %v %+v", err, final)
			}
		}
		indivNS += time.Since(t0)
		if err := e.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(indivNS)/float64(sweepNS), "speedup")
	b.ReportMetric(float64(sweepNS.Nanoseconds())/float64(b.N), "sweep-ns/grid")
	b.ReportMetric(float64(indivNS.Nanoseconds())/float64(b.N), "individual-ns/grid")
}
