package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hopp/internal/service"
)

// daemonMix is one round of daemon traffic: a sweep followed to its last
// result line, then two clients each submitting distinct runs closed-loop
// and finally resubmitting a few of them, which must come back cached.
type daemonMix struct {
	sweep            service.SweepRequest
	jobsPerClient    int
	repeatsPerClient int
}

// The sweep grid (4 workloads × 4 systems × 2 fracs) and the single-run
// mix (6 workloads × 6 systems): quick sims of 10-35 ms, so the pool,
// registry, cache, dedupe, stream memoization and journal are a visible
// share of each job.
var (
	fullMix = daemonMix{
		sweep: service.SweepRequest{
			Workloads: []string{"sequential", "graphx-pr", "npb-mg", "quicksort"},
			Systems:   []string{"hopp", "fastswap", "leap", "spp"},
			Fracs:     []float64{0.5, 0.25},
		},
		jobsPerClient:    54,
		repeatsPerClient: 5,
	}
	smallMix = daemonMix{
		sweep: service.SweepRequest{
			Workloads: []string{"sequential"},
			Systems:   []string{"hopp", "fastswap"},
			Fracs:     []float64{0.25},
		},
		jobsPerClient:    3,
		repeatsPerClient: 1,
	}
	jobWorkloads = []string{"random", "graphx-bfs", "npb-is", "spark-bayes", "omp-kmeans", "ladder"}
	jobSystems   = []string{"hopp", "hopp-bulk", "hopp-markov", "fastswap", "spp", "chimera"}
)

const jobFrac = 0.25

// daemon drives an engine through its HTTP surface in rounds, each
// starting from a collected heap and scaled by its own calibration.
// Throughput is the median over rounds of simulations completed per
// second; each distinct run is one latency sample (submit to done).
type daemon struct {
	s    *svc
	seed int64
	mix  daemonMix
	// checks are results to recompute directly once timing is over.
	checks []directCheck
}

// directCheck is a served result that must equal a direct simulation of
// the same request.
type directCheck struct {
	req     service.RunRequest
	metrics []byte
}

func setupDaemon(o options) (instance, error) {
	s, err := startSvc(o)
	if err != nil {
		return nil, err
	}
	d := &daemon{s: s, seed: o.seed, mix: fullMix}
	if o.tiny {
		d.mix = smallMix
	}
	warm := &outcome{}
	d.round(0, smallMix, nil, warm)
	if warm.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up round: %v", warm.failures), s.close())
	}
	d.checks = nil
	return d, nil
}

func (d *daemon) run(o options, tr *trace, deadline time.Time) *outcome {
	d.s.traceInto(tr)
	defer d.s.traceInto(nil)
	out := &outcome{}
	var rates []float64
	for r := 1; r == 1 || time.Now().Before(deadline); r++ {
		runtime.GC()
		f := o.cal.scale()
		n := len(out.latencyMS)
		rates = append(rates, d.round(r, d.mix, tr, out)/f)
		scaleAll(out.latencyMS[n:], f)
	}
	out.throughput = median(rates)
	d.verify(out)
	return out
}

// verify recomputes the collected results directly, outside the timed
// phase.
func (d *daemon) verify(out *outcome) {
	for _, c := range d.checks {
		r, err := runPoint(catalogPoint(c.req.Workload, c.req.System, *c.req.Frac, c.req.Quick), c.req.Seed, nil, false)
		if err != nil {
			out.fail("direct run of %s/%s: %v", c.req.Workload, c.req.System, err)
			continue
		}
		want, err := json.Marshal(r.met)
		if err != nil || !bytes.Equal(want, c.metrics) {
			out.fail("served %s/%s seed %d differs from a direct run", c.req.Workload, c.req.System, c.req.Seed)
		}
	}
	d.checks = nil
}

func (d *daemon) replay() []point {
	var ps []point
	for _, w := range jobWorkloads {
		for _, s := range jobSystems {
			ps = append(ps, catalogPoint(w, s, jobFrac, true))
		}
	}
	return ps
}

func (d *daemon) close() error { return d.s.close() }

// round runs one sweep and one burst of single runs and returns the
// simulations completed per second.
func (d *daemon) round(r int, mix daemonMix, tr *trace, out *outcome) float64 {
	start := time.Now()
	sims := d.sweep(r, mix.sweep, tr, out)
	sims += d.jobs(r, mix, tr, out)
	return float64(sims) / time.Since(start).Seconds()
}

// sweep submits the grid with this round's seed and follows its results
// stream to the last line; it returns the number of points computed.
func (d *daemon) sweep(r int, grid service.SweepRequest, tr *trace, out *outcome) int {
	grid.Seeds = []int64{d.seed*1000 + int64(r)}
	grid.Quick = true
	body, err := json.Marshal(grid)
	out.attempted++
	if err != nil {
		out.fail("sweep request: %v", err)
		return 0
	}
	built := d.s.eng.Metrics().SweepStreamsBuilt
	start := time.Now()
	code, b, err := d.s.call(http.MethodPost, "/v1/sweeps", body)
	if err != nil || code != http.StatusAccepted {
		out.fail("sweep submit: HTTP %d %s %v", code, b, err)
		return 0
	}
	var st service.RunStatus
	if err := json.Unmarshal(b, &st); err != nil || st.Sweep == nil {
		out.fail("sweep submit: bad status %s", b)
		return 0
	}
	pts, err := d.follow(st.ID)
	took := time.Since(start)
	if err != nil {
		out.fail("sweep %s results: %v", st.ID, err)
		return 0
	}
	tr.add(0, st.ID, "sweep", start, took, int64(len(pts)))
	tr.sample("service.sweep_ms", ms(took))
	tr.count("service.sweeps", 1)
	tr.count("service.streams", float64(d.s.eng.Metrics().SweepStreamsBuilt-built))
	tr.count("service.ops", float64(len(pts)))
	if len(pts) != st.Sweep.Total {
		out.fail("sweep %s streamed %d of %d points", st.ID, len(pts), st.Sweep.Total)
		return len(pts)
	}
	for i, pt := range pts {
		if pt.State != service.StateDone || len(pt.Metrics) == 0 {
			out.fail("sweep %s point %d: %s %s", st.ID, i, pt.State, pt.Error)
		}
	}
	// Two points per sweep are recomputed directly after timing.
	for _, i := range []int{(r * 7) % len(pts), (r*7 + len(pts)/2) % len(pts)} {
		pt := pts[i]
		frac := pt.Frac
		d.checks = append(d.checks, directCheck{
			req:     service.RunRequest{Workload: pt.Workload, System: pt.System, Frac: &frac, Seed: pt.Seed, Quick: true},
			metrics: pt.Metrics,
		})
	}
	return len(pts)
}

// follow reads a sweep's results stream in follow mode until it ends.
func (d *daemon) follow(id string) ([]service.SweepPoint, error) {
	rc, err := d.s.stream("/v1/sweeps/" + id + "/results?follow=true")
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	var pts []service.SweepPoint
	dec := json.NewDecoder(rc)
	for {
		var pt service.SweepPoint
		err := dec.Decode(&pt)
		if errors.Is(err, io.EOF) {
			return pts, nil
		}
		if err != nil {
			return pts, err
		}
		pts = append(pts, pt)
	}
}

// clientLog is one client's share of a round, merged after both finish.
type clientLog struct {
	out    outcome
	checks []directCheck
}

// jobs runs the round's single runs from two closed-loop clients and
// returns the number of distinct runs completed.
func (d *daemon) jobs(r int, mix daemonMix, tr *trace, out *outcome) int {
	logs := make([]clientLog, 2)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.client(r, c, mix, tr, &logs[c])
		}(c)
	}
	wg.Wait()
	done := 0
	for _, l := range logs {
		out.attempted += l.out.attempted
		out.failed += l.out.failed
		out.failures = append(out.failures, l.out.failures...)
		out.latencyMS = append(out.latencyMS, l.out.latencyMS...)
		done += len(l.out.latencyMS)
		d.checks = append(d.checks, l.checks...)
	}
	return done
}

// jobRequest is distinct run i of client c in round r: a fresh seed and
// a workload × system pair cycling through the mix.
func (d *daemon) jobRequest(r, c, i int, mix daemonMix) service.RunRequest {
	k := c*mix.jobsPerClient + i
	frac := jobFrac
	return service.RunRequest{
		Workload: jobWorkloads[k%len(jobWorkloads)],
		System:   jobSystems[(k/len(jobWorkloads))%len(jobSystems)],
		Frac:     &frac,
		Seed:     d.seed*1_000_000 + int64(r)*1000 + int64(k),
		Quick:    true,
	}
}

// client submits its distinct runs one at a time: POST, wait for the
// engine to finish the job, GET the result. Then it resubmits some of
// them and expects byte-identical cached results.
func (d *daemon) client(r, c int, mix daemonMix, tr *trace, l *clientLog) {
	type served struct {
		body    []byte
		metrics []byte
	}
	var results []served
	for i := 0; i < mix.jobsPerClient; i++ {
		req := d.jobRequest(r, c, i, mix)
		body, err := json.Marshal(req)
		l.out.attempted++
		if err != nil {
			l.out.fail("run request: %v", err)
			continue
		}
		t0 := time.Now()
		code, b, err := d.s.call(http.MethodPost, "/v1/runs", body)
		t1 := time.Now()
		var st service.RunStatus
		if err != nil || code != http.StatusAccepted || json.Unmarshal(b, &st) != nil {
			l.out.fail("run submit: HTTP %d %s %v", code, b, err)
			continue
		}
		if err := d.wait(st.ID); err != nil {
			l.out.fail("waiting for %s: %v", st.ID, err)
			continue
		}
		t2 := time.Now()
		code, b, err = d.s.call(http.MethodGet, "/v1/runs/"+st.ID, nil)
		t3 := time.Now()
		var fin service.RunStatus
		if err != nil || code != http.StatusOK || json.Unmarshal(b, &fin) != nil {
			l.out.fail("status of %s: HTTP %d %v", st.ID, code, err)
			continue
		}
		if fin.State != service.StateDone || len(fin.Metrics) == 0 {
			l.out.fail("run %s ended %s: %s", st.ID, fin.State, fin.Error)
			continue
		}
		l.out.latencyMS = append(l.out.latencyMS, ms(t2.Sub(t0)))
		results = append(results, served{body, fin.Metrics})
		if i == 0 {
			l.checks = append(l.checks, directCheck{req: req, metrics: fin.Metrics})
		}
		tr.sample("service.submit_us", us(t1.Sub(t0)))
		tr.sample("service.status_us", us(t3.Sub(t2)))
		tr.sample("service.queue_wait_ms", ms(t2.Sub(t0))-float64(fin.WallNS)/1e6)
		tr.sample("service.run_ms", float64(fin.WallNS)/1e6)
		tr.count("service.ops", 1)
		job := tr.add(0, st.ID, "job", t0, t2.Sub(t0), 1)
		tr.add(job, st.ID, "http.submit", t0, t1.Sub(t0), 1)
		tr.add(job, st.ID, "engine.wait", t1, t2.Sub(t1), 1)
		tr.add(job, st.ID, "http.status", t2, t3.Sub(t2), 1)
	}
	for j := 0; j < mix.repeatsPerClient && len(results) > 0; j++ {
		want := results[j*len(results)/mix.repeatsPerClient]
		l.out.attempted++
		t0 := time.Now()
		code, b, err := d.s.call(http.MethodPost, "/v1/runs", want.body)
		took := time.Since(t0)
		var st service.RunStatus
		if err != nil || code != http.StatusOK || json.Unmarshal(b, &st) != nil {
			l.out.fail("repeat submit: HTTP %d %s %v", code, b, err)
			continue
		}
		if !st.Cached || !bytes.Equal(st.Metrics, want.metrics) {
			l.out.fail("repeat %s: cached=%t, metrics equal=%t", st.ID, st.Cached, bytes.Equal(st.Metrics, want.metrics))
			continue
		}
		tr.sample("service.cache_hit_us", us(took))
		tr.count("service.ops", 1)
	}
}

// wait blocks until the engine finishes job id, giving up after a
// minute so a stuck job fails the op instead of hanging the run.
func (d *daemon) wait(id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := d.s.eng.Wait(ctx, id)
	return err
}
