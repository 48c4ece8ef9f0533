package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// quickRun is one experiment's quick rendering at seed 1 and the
// number of Progress ticks it produced.
type quickRun struct {
	out   []byte
	ticks int64
	err   error
}

var (
	quickRunsMu sync.Mutex
	quickRuns   = map[string]*quickRun{}
)

// runQuick runs experiment id once per test process at quick() options,
// counting Progress ticks, and caches the result so the golden and
// tick-count tests share one regeneration.
func runQuick(t *testing.T, id string) *quickRun {
	t.Helper()
	quickRunsMu.Lock()
	defer quickRunsMu.Unlock()
	if r, ok := quickRuns[id]; ok {
		return r
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	var ticks atomic.Int64
	o := quick()
	o.Progress = func() { ticks.Add(1) }
	r := &quickRun{}
	tables, err := e.Run(context.Background(), o)
	if err != nil {
		r.err = err
	} else {
		var buf bytes.Buffer
		for _, tab := range tables {
			tab.Fprint(&buf)
		}
		r.out = buf.Bytes()
	}
	r.ticks = ticks.Load()
	quickRuns[id] = r
	return r
}

// renderAllQuick renders every experiment in registry order, each under
// a "### id" header line.
func renderAllQuick(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range All() {
		r := runQuick(t, e.ID)
		if r.err != nil {
			t.Fatalf("%s: %v", e.ID, r.err)
		}
		fmt.Fprintf(&buf, "### %s\n", e.ID)
		buf.Write(r.out)
	}
	return buf.Bytes()
}

// Every experiment's quick rendering at seed 1 is pinned byte for byte:
// a reordered row, a swapped stream seed or a changed normalization in
// any table or figure fails here, not only in table2 and fig1.
func TestQuickSeed1AllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick_seed1_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderAllQuick(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("rendering differs from testdata/quick_seed1_all.golden at line %d:\n golden: %s\n    got: %s", i+1, w, g)
		}
	}
}

// machines is how many simulations each experiment runs at quick
// scale; an experiment missing here runs none.
var machines = map[string]int64{
	"breakdown": 1, "table3": 14, "table5": 14,
	"fig1": 4, "fig9": 40, "fig10": 16, "fig11": 16, "fig12": 18, "fig13": 12, "fig14": 12,
	"fig15": 6, "fig16": 40, "fig17": 40, "fig18": 20, "fig19": 5, "fig20": 5,
	"fig21": 42, "fig22": 7, "baselines": 56,
}

// Each experiment reports exactly one Progress tick per simulation it
// runs, local baselines included, however they are scheduled. Fig. 9
// builds each workload's local run once for both memory fractions.
func TestProgressTickCounts(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && e.ID != "fig1" {
				t.Skip("slow")
			}
			r := runQuick(t, e.ID)
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.ticks != machines[e.ID] {
				t.Fatalf("%s: %d Progress ticks, want %d", e.ID, r.ticks, machines[e.ID])
			}
		})
	}
}

// Cancelling an experiment partway through fails it with
// context.Canceled, and every simulation goroutine it started has
// finished by then: no tick arrives after Run returns, and the
// goroutine count settles back to its baseline.
func TestCancelledExperimentJoinsItsSimulations(t *testing.T) {
	e, ok := ByID("fig17")
	if !ok {
		t.Fatal("fig17 missing")
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ticks atomic.Int64
	o := quick()
	o.Progress = func() {
		if ticks.Add(1) == 3 {
			cancel()
		}
	}
	_, err := e.Run(ctx, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fig17 returned %v, want context.Canceled", err)
	}
	atReturn := ticks.Load()
	if atReturn >= 40 {
		t.Fatalf("fig17 ran all %d units despite the cancel", atReturn)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the cancelled run, %d before", n, baseline)
	}
	if n := ticks.Load(); n != atReturn {
		t.Fatalf("%d Progress ticks arrived after Run returned", n-atReturn)
	}
}

// Every experiment that runs a simulation fails cleanly on a cancelled
// context: its error wraps context.Canceled and names the experiment
// and the workload/system whose run it stopped.
func TestCancelledContextFailsEveryExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if machines[e.ID] == 0 {
			continue
		}
		_, err := e.Run(ctx, quick())
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", e.ID, err)
			continue
		}
		prefix := regexp.MustCompile("^" + regexp.QuoteMeta(e.ID) + ` [^ /]+/[^ ]+: `)
		if !prefix.MatchString(err.Error()) {
			t.Errorf("%s: error %q does not start with %q and a workload/system", e.ID, err, e.ID)
		}
	}
}
