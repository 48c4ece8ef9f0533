package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hopp/internal/memsim"
	"hopp/internal/prefetch"
	"hopp/internal/rdma"
	"hopp/internal/service"
	"hopp/internal/sim"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// point is one simulation: a workload under one system at one local
// memory fraction (0 = the local run that normalizes the others).
type point struct {
	app  string
	gen  func() workload.Generator
	sys  string
	frac float64
	// quick selects the shrunken cache hierarchy that goes with
	// quick-scale workloads, as the service and the experiments use.
	quick bool
}

// catalogPoint is a point over a service-catalog workload.
func catalogPoint(app, sys string, frac float64, quick bool) point {
	return point{app: app, sys: sys, frac: frac, quick: quick, gen: func() workload.Generator {
		g, ok := service.NewWorkload(app, quick)
		if !ok {
			panic("hoppbench: unknown catalog workload " + app)
		}
		return g
	}}
}

func (p point) id() string { return fmt.Sprintf("%s/%s/%g", p.app, p.sys, p.frac) }

// cacheBytes returns the L2 and LLC sizes the point's machine models.
func (p point) cacheBytes() (l2, llc int) {
	if p.quick {
		return 64 << 10, 512 << 10
	}
	return 256 << 10, 2 << 20
}

func (p point) config(seed int64) sim.Config {
	l2, llc := p.cacheBytes()
	return sim.Config{LocalMemoryFrac: p.frac, Seed: seed, L2Bytes: l2, LLCBytes: llc}
}

// simRun is one executed point: its Metrics and where its host time went.
type simRun struct {
	met    sim.Metrics
	fabric rdma.Stats
	start  time.Time
	// build is the generator constructor, create sim.New, exec Run.
	build, create, exec time.Duration
	// alloc is the heap bytes Run allocated (measured only on request).
	alloc uint64
	timer *schemeTimer
}

func (r simRun) total() time.Duration { return r.build + r.create + r.exec }

// runPoint builds the point's generator and machine and runs it. A
// non-nil timer is installed as the prefetch decorator. measureAlloc
// reads the heap counters around Run, outside the timed interval.
func runPoint(p point, seed int64, timer *schemeTimer, measureAlloc bool) (simRun, error) {
	r := simRun{start: time.Now(), timer: timer}
	sys, ok := service.NewSystem(p.sys)
	if !ok {
		return r, fmt.Errorf("unknown system %q", p.sys)
	}
	if timer != nil {
		sys = timer.wrap(sys)
	}
	cfg := p.config(seed)
	cfg.System = sys
	t := time.Now()
	gen := p.gen()
	r.build = time.Since(t)
	t = time.Now()
	m, err := sim.New(cfg, gen)
	r.create = time.Since(t)
	if err != nil {
		return r, err
	}
	var before runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&before)
	}
	t = time.Now()
	r.met, err = m.Run()
	r.exec = time.Since(t)
	if measureAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.alloc = after.TotalAlloc - before.TotalAlloc
	}
	r.fabric = m.FabricStats()
	return r, err
}

// checkMetrics applies the invariants every run must satisfy: each
// access is served by the caches or by DRAM, and no prefetch is used
// more often than it was issued.
func checkMetrics(met sim.Metrics) error {
	if met.CacheHits+met.DRAMHits != met.Accesses {
		return fmt.Errorf("cache hits %d + DRAM hits %d != accesses %d", met.CacheHits, met.DRAMHits, met.Accesses)
	}
	if met.PrefetchHits() > met.PrefetchIssued {
		return fmt.Errorf("prefetch hits %d > issued %d", met.PrefetchHits(), met.PrefetchIssued)
	}
	return nil
}

// schemeTimer is the prefetch decorator a traced run installs through
// sim.System.NewFault: it times the demand-path prefetcher's fault hook
// and its two feedback seams, counts the calls, and forwards everything
// unchanged, so the simulated Metrics stay identical.
type schemeTimer struct {
	inner    prefetch.Prefetcher
	fault    cost
	feedback cost
}

// wrap returns sys with its demand-path prefetcher decorated; systems
// without one are returned as they are.
func (t *schemeTimer) wrap(sys sim.System) sim.System {
	if sys.NewFault == nil {
		return sys
	}
	newFault := sys.NewFault
	sys.NewFault = func(r prefetch.RegionResolver) prefetch.Prefetcher {
		t.inner = newFault(r)
		return t
	}
	return sys
}

func (t *schemeTimer) Name() string { return t.inner.Name() }

func (t *schemeTimer) Inject() bool { return t.inner.Inject() }

func (t *schemeTimer) OnFault(now vclock.Time, key memsim.PageKey) []memsim.VPN {
	start := time.Now()
	pages := t.inner.OnFault(now, key)
	t.fault.add(cost{float64(time.Since(start)), 1})
	return pages
}

func (t *schemeTimer) OnPrefetchHit(now vclock.Time, key memsim.PageKey) {
	start := time.Now()
	t.inner.OnPrefetchHit(now, key)
	t.feedback.add(cost{float64(time.Since(start)), 1})
}

func (t *schemeTimer) OnPrefetchEvicted(now vclock.Time, key memsim.PageKey, used bool) {
	start := time.Now()
	t.inner.OnPrefetchEvicted(now, key, used)
	t.feedback.add(cost{float64(time.Since(start)), 1})
}

// The sim workloads' app sets. hopp-mc's apps range from cache-resident
// (hpl, ladder) to pure streaming, so the MC/core path carries between
// a third and all of their accesses; demand-faults' apps are the
// irregular ones whose major faults exercise the prefetchers hardest.
var (
	mcApps     = []string{"omp-kmeans", "hpl", "npb-mg", "npb-cg", "graphx-pr", "spark-kmeans", "ladder", "ripple", "quicksort"}
	demandApps = []string{"random", "graphx-bfs", "npb-is", "spark-bayes", "npb-mg", "quicksort"}
	// schemes are the registry prefetchers the per-layer metrics cover.
	schemes = []string{"fastswap", "leap", "spp", "chimera", "hhp", "depth-16"}
)

// local is the system of the unlimited-memory normalization run.
const local = "noprefetch"

// hoppMCPoints is HoPP at 50% and 25% local memory over each app, plus
// the app's local run.
func hoppMCPoints(quick bool, apps []string) []point {
	var ps []point
	for _, a := range apps {
		ps = append(ps, catalogPoint(a, local, 0, quick), catalogPoint(a, "hopp", 0.5, quick), catalogPoint(a, "hopp", 0.25, quick))
	}
	return ps
}

// demandPoints is every registry scheme at 25% local memory over each
// app, plus the app's local run.
func demandPoints(quick bool, apps []string) []point {
	var ps []point
	for _, a := range apps {
		ps = append(ps, catalogPoint(a, local, 0, quick))
		for _, s := range schemes {
			ps = append(ps, catalogPoint(a, s, 0.25, quick))
		}
	}
	return ps
}

func setupHoPPMC(o options) (instance, error) {
	if o.tiny {
		return newSimLoad(o, hoppMCPoints(true, mcApps[:2]))
	}
	return newSimLoad(o, hoppMCPoints(false, mcApps))
}

func setupDemandFaults(o options) (instance, error) {
	if o.tiny {
		return newSimLoad(o, demandPoints(true, demandApps[:2]))
	}
	return newSimLoad(o, demandPoints(false, demandApps))
}

// simLoad runs its points over and over, one pass after another, each
// run starting from a collected heap. Every run is one latency sample,
// its scaled host time (generator, sim.New and Run); throughput is all
// points' accesses over the sum of each point's median time, so a stall
// that hits a few runs does not move it.
type simLoad struct {
	points []point
	seed   int64
	// ref is each point's warm-up Metrics, serialized: every later run
	// of the point must reproduce it byte for byte.
	ref [][]byte
}

func newSimLoad(o options, points []point) (*simLoad, error) {
	l := &simLoad{points: points, seed: o.seed}
	for _, p := range points {
		r, err := runPoint(p, o.seed, nil, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.id(), err)
		}
		b, err := json.Marshal(r.met)
		if err != nil {
			return nil, err
		}
		l.ref = append(l.ref, b)
	}
	return l, nil
}

func (l *simLoad) run(o options, tr *trace, deadline time.Time) *outcome {
	out := &outcome{}
	times := make([][]float64, len(l.points))
	accesses := make([]float64, len(l.points))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, p := range l.points {
			var timer *schemeTimer
			if tr != nil {
				timer = &schemeTimer{}
			}
			runtime.GC()
			f := o.cal.scale()
			r, err := runPoint(p, l.seed, timer, false)
			out.attempted++
			if err != nil {
				out.fail("%s: %v", p.id(), err)
				continue
			}
			t := r.total().Seconds() * f
			times[i] = append(times[i], t)
			out.latencyMS = append(out.latencyMS, t*1000)
			accesses[i] = float64(r.met.Accesses)
			traceRun(tr, fmt.Sprintf("pass%d/%s", pass, p.id()), r)
			if err := l.check(i, r.met); err != nil {
				out.fail("pass %d %s: %v", pass, p.id(), err)
			}
		}
	}
	var work, busy float64
	for i := range l.points {
		if len(times[i]) > 0 {
			work += accesses[i]
			busy += median(times[i])
		}
	}
	out.throughput = ratio(work, busy)
	return out
}

// check compares a run of point i with its warm-up reference.
func (l *simLoad) check(i int, met sim.Metrics) error {
	if err := checkMetrics(met); err != nil {
		return err
	}
	b, err := json.Marshal(met)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, l.ref[i]) {
		return fmt.Errorf("metrics differ from the warm-up run")
	}
	return nil
}

func (l *simLoad) replay() []point { return l.points }

func (l *simLoad) close() error { return nil }

// traceRun records a sim point's spans: the point, its three phases, and
// the decorated prefetcher's aggregated calls inside Run.
func traceRun(tr *trace, op string, r simRun) {
	if tr == nil {
		return
	}
	id := tr.add(0, op, "point", r.start, r.total(), 1)
	tr.add(id, op, "workload.build", r.start, r.build, 1)
	tr.add(id, op, "sim.new", r.start.Add(r.build), r.create, 1)
	runStart := r.start.Add(r.build + r.create)
	run := tr.add(id, op, "sim.run", runStart, r.exec, 1)
	if t := r.timer; t != nil && t.inner != nil {
		tr.add(run, op, "prefetch.on_fault", runStart, time.Duration(t.fault.ns), int64(t.fault.calls))
		tr.add(run, op, "prefetch.feedback", runStart, time.Duration(t.feedback.ns), int64(t.feedback.calls))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
