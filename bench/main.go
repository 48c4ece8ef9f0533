// Command hoppbench is the repository's benchmark. Five closed-loop
// workloads drive the simulator, the experiment set and the hoppd
// service through their public entry points only, so every number is
// taken from outside the program:
//
//	hopp-mc        HoPP's own path: LLC misses through the MC, hot pages into core
//	demand-faults  the fault-driven prefetchers: vmm, rdma, vclock, prefetch seams
//	expset-quick   regeneration of every table and figure at quick scale
//	daemon         sweeps and single runs through the engine over loopback HTTP
//	ingest         live HMTT trace sessions through the engine over loopback HTTP
//
// One run sets the workload up three times (reporting the median set-up
// time), measures it for --seconds, checks every result it produced, and
// prints one JSON line: the end-to-end metrics, or with --trace 1 the
// per-layer metrics, that BENCHMARK.json declares. --compare reads two
// sets of such runs and judges each metric. bench/README.md has the
// details; bench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets its workload up; set-up time is
// the median, so one slow or fast set-up does not move it.
const setupReps = 3

// options is one benchmark invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every workload to a few small ops; the tests use it.
	tiny bool
	// root is the repository root: BENCHMARK.json and the experiment
	// goldens are read relative to it.
	root string
	// tmp is a scratch directory inside the checkout (journals).
	tmp string
	log io.Writer
	// cal scales host times to the reference machine speed.
	cal *calibrator
}

// logf writes a diagnostic line to the run's log (standard error).
func (o options) logf(format string, args ...any) {
	fmt.Fprintf(o.log, "hoppbench: "+format+"\n", args...)
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// setup builds the workload's inputs from the seed, brings up what
	// it runs against, and runs one untimed warm-up op whose results are
	// the reference every timed op is checked against.
	setup func(o options) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run executes timed ops, closed-loop, until deadline has passed. A
	// non-nil tr means a traced run: decorators are installed and the
	// service-layer samples are recorded into it.
	run(o options, tr *trace, deadline time.Time) *outcome
	// replay lists the simulation points a traced run's layer replay
	// feeds through each layer: the workload's own points, or the points
	// its traffic consists of.
	replay() []point
	close() error
}

var workloads = []workloadDef{
	{"hopp-mc", setupHoPPMC},
	{"demand-faults", setupDemandFaults},
	{"expset-quick", setupExpset},
	{"daemon", setupDaemon},
	{"ingest", setupIngest},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what the timed phase measured and checked.
type outcome struct {
	// throughput is work items per scaled host second: the median over
	// the workload's measurement intervals, or for workloads that repeat
	// identical ops, total work over the ops' median times.
	throughput float64
	// latencyMS holds one scaled latency per op.
	latencyMS []float64
	attempted int
	failed    int
	// failures keeps the first few failure messages for the log.
	failures []string
}

// fail records one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// benchSpec is BENCHMARK.json: the single declaration of the workloads
// and of every metric's name, unit, direction and bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hoppbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hopp-mc, demand-faults, expset-quick, daemon, ingest")
	seed := fs.Int64("seed", 1, "seed for every generator, sweep, job and trace the run makes")
	seconds := fs.Float64("seconds", 15, "how long the timed phase measures")
	traced := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with --trace 1, also write the run's spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two sets of runs: --compare BASE.jsonl NEW.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hoppbench: --compare needs BASE and NEW run-set files")
			return 2
		}
		if err := compareSets(".", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "hoppbench:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "hoppbench: --trace takes 0 or 1")
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "hoppbench: unknown workload %q\n", *name)
		return 2
	}
	build := os.Getenv("BENCH_BUILD_DIR")
	if build == "" {
		build = ".bench_build"
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "hoppbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "hoppbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := options{seed: *seed, seconds: *seconds, trace: *traced == 1, root: ".", tmp: tmp, log: stderr}
	res, tr, err := measure(def, o)
	if err != nil {
		fmt.Fprintln(stderr, "hoppbench:", err)
		return 1
	}
	if tr != nil && *spans != "" {
		if err := tr.writeSpans(*spans); err != nil {
			fmt.Fprintln(stderr, "hoppbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hoppbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure sets the workload up setupReps times, runs the timed phase
// on the last set-up, and assembles the metrics BENCHMARK.json declares
// for the mode: end-to-end, or per-layer for a traced run.
func measure(def workloadDef, o options) (result, *trace, error) {
	spec, err := loadSpec(o.root)
	if err != nil {
		return result{}, nil, err
	}
	o.cal = newCalibrator()
	var setups []float64
	var inst instance
	// release closes the live instance once; the deferred call covers the
	// error paths, where the first error is the one worth reporting.
	release := func() error {
		if inst == nil {
			return nil
		}
		err := inst.close()
		inst = nil
		return err
	}
	defer release()
	for i := 0; i < setupReps; i++ {
		if err := release(); err != nil {
			return result{}, nil, err
		}
		// Each set-up, like each timed op, starts from a collected heap,
		// so garbage left by the previous one is not charged to it.
		runtime.GC()
		start := time.Now()
		inst, err = def.setup(o)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var tr *trace
	if o.trace {
		tr = newTrace()
	}
	runtime.GC()
	start := time.Now()
	out := inst.run(o, tr, start.Add(time.Duration(o.seconds*float64(time.Second))))
	// Set-ups are few and long, so they are scaled by the run's median
	// kernel time rather than by one sample each.
	calNS := median(o.cal.ns)
	setupScale := math.Pow(calibRefNS/calNS, calibExponent)
	o.logf("%s: %d ops in %.2fs, %d failed, %d latency samples, set-ups %.3fs, calibration kernel median %.0fns over %d samples (set-up x %.3f)",
		def.name, out.attempted, time.Since(start).Seconds(), out.failed, len(out.latencyMS), setups, calNS, len(o.cal.ns), setupScale)
	values := map[string]float64{
		"throughput_per_s": out.throughput,
		"latency_p50_ms":   quantile(out.latencyMS, 0.5),
		"latency_p90_ms":   quantile(out.latencyMS, 0.9),
		"setup_s":          median(setups) * setupScale,
	}
	declared := spec.EndToEnd
	if o.trace {
		o.logf("%s traced end-to-end: throughput_per_s=%g latency_p50_ms=%g latency_p90_ms=%g",
			def.name, values["throughput_per_s"], values["latency_p50_ms"], values["latency_p90_ms"])
		values, err = layerMetrics(o, inst, tr, out)
		if err != nil {
			return result{}, nil, err
		}
		values["runtime.peak_rss_mb"] = peakRSSMB()
		values["host.calib_ns"] = calNS
		declared = spec.PerLayer
	}
	if err := release(); err != nil {
		return result{}, nil, err
	}
	for _, f := range out.failures {
		o.logf("%s: check failed: %s", def.name, f)
	}
	metrics, err := declare(declared, values)
	if err != nil {
		return result{}, nil, err
	}
	return result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, tr, nil
}

// declare pairs every declared metric with its computed value; a metric
// declared but not computed, or computed but not declared, is an error,
// so BENCHMARK.json and the program cannot drift apart.
func declare(specs []metricSpec, values map[string]float64) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", s.Name)
		}
		out[s.Name] = metricOut{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range values { //hopplint:sorted collected names are sorted below
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	return out, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
