package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hopp/internal/experiments"
)

// goldenIDs are the experiments with committed pre-port goldens
// (internal/experiments/testdata/port_golden_<id>.txt), valid at seed 1.
var goldenIDs = []string{"table2", "fig1"}

// expset regenerates every experiment at quick scale, one after
// another, as `hoppexp -exp all -quick` does without -parallel, each
// experiment starting from a collected heap. Every regeneration of an
// experiment is one latency sample, scaled; throughput is experiments
// per second over the sum of each experiment's median time.
type expset struct {
	exps []experiments.Experiment
	seed int64
	// ref holds each experiment's first rendering; every later one must
	// be byte-identical to it.
	ref map[string][]byte
	// setupFailures are golden mismatches found at set-up.
	setupFailures []string
	points        []point
}

func setupExpset(o options) (instance, error) {
	x := &expset{seed: o.seed, ref: map[string][]byte{}}
	if o.tiny {
		for _, id := range goldenIDs {
			e, _ := experiments.ByID(id)
			x.exps = append(x.exps, e)
		}
		x.points = hoppMCPoints(true, mcApps[:1])
	} else {
		x.exps = experiments.All()
		x.points = expsetPoints()
	}
	// The warm-up regenerates the golden experiments and, at seed 1,
	// checks them against the committed goldens.
	for _, id := range goldenIDs {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s missing", id)
		}
		out, err := render(e, o.seed)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", id, err)
		}
		x.ref[id] = out
		if o.seed != 1 {
			continue
		}
		want, err := os.ReadFile(filepath.Join(o.root, "internal", "experiments", "testdata", "port_golden_"+id+".txt"))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(out, want) {
			x.setupFailures = append(x.setupFailures, id+" differs from its committed golden")
		}
	}
	return x, nil
}

// render runs one experiment and returns its rendered tables.
func render(e experiments.Experiment, seed int64) ([]byte, error) {
	tables, err := e.Run(context.Background(), experiments.Options{Seed: seed, Quick: true})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, t := range tables {
		t.Fprint(&buf)
	}
	return buf.Bytes(), nil
}

func (x *expset) run(o options, tr *trace, deadline time.Time) *outcome {
	out := &outcome{}
	for _, f := range x.setupFailures {
		out.attempted++
		out.fail("%s", f)
	}
	times := make([][]float64, len(x.exps))
	for regen := 0; regen == 0 || time.Now().Before(deadline); regen++ {
		op := fmt.Sprintf("regen%d", regen)
		parent := tr.open(0, op, "regeneration")
		for i, e := range x.exps {
			runtime.GC()
			f := o.cal.scale()
			start := time.Now()
			got, err := render(e, x.seed)
			d := time.Since(start)
			out.attempted++
			tr.add(parent, op, "experiments."+e.ID, start, d, 1)
			tr.sample("experiments."+e.ID+"_s", d.Seconds())
			if err != nil {
				out.fail("%s: %v", e.ID, err)
				continue
			}
			times[i] = append(times[i], d.Seconds()*f)
			out.latencyMS = append(out.latencyMS, d.Seconds()*f*1000)
			if want, ok := x.ref[e.ID]; !ok {
				x.ref[e.ID] = got
			} else if !bytes.Equal(got, want) {
				out.fail("%s: regeneration %d differs from the first", e.ID, regen)
			}
		}
		tr.close(parent)
	}
	var done, busy float64
	for i := range x.exps {
		if len(times[i]) > 0 {
			done++
			busy += median(times[i])
		}
	}
	out.throughput = ratio(done, busy)
	return out
}

func (x *expset) replay() []point { return x.points }

// expsetPoints is the quick-scale counterpart of the two sim workloads'
// point sets: the configurations most of the experiments are made of.
func expsetPoints() []point {
	var ps []point
	for _, a := range mcApps {
		ps = append(ps, catalogPoint(a, local, 0, true), catalogPoint(a, "hopp", 0.5, true))
	}
	for _, a := range demandApps {
		ps = append(ps, catalogPoint(a, local, 0, true), catalogPoint(a, "fastswap", 0.25, true))
	}
	return ps
}

func (x *expset) close() error { return nil }
