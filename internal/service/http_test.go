package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

func newTestServer(t *testing.T, opts Options) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, opts)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postRun(t *testing.T, base string, req RunRequest) (RunStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return st, resp.StatusCode
}

// pollRun polls GET /v1/runs/{id} until the run is terminal.
func pollRun(t *testing.T, base, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st RunStatus
		resp := getJSON(t, base+"/v1/runs/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET run %s: status %d", id, resp.StatusCode)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return RunStatus{}
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	var body map[string]string
	resp := getJSON(t, srv.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
}

// Submit → poll → fetch: the primary daemon flow end-to-end over HTTP.
func TestHTTPSubmitPollFetch(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})
	st, code := postRun(t, srv.URL, quickReq())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("fresh submission = %+v", st)
	}
	final := pollRun(t, srv.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	var met sim.Metrics
	if err := json.Unmarshal(final.Metrics, &met); err != nil {
		t.Fatalf("metrics don't parse as sim.Metrics: %v", err)
	}
	if met.Accesses == 0 || met.CompletionTime == 0 {
		t.Fatalf("empty metrics: %+v", met)
	}
}

// A repeated identical request must be a recorded cache hit and move the
// /metrics counters accordingly (acceptance criteria).
func TestHTTPCacheHitPathMovesCounters(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})
	first, _ := postRun(t, srv.URL, quickReq())
	pollRun(t, srv.URL, first.ID)

	var before MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &before)

	second, code := postRun(t, srv.URL, quickReq())
	if code != http.StatusOK {
		t.Fatalf("cached submit status = %d, want 200", code)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("repeat = {cached:%v state:%s}, want cached+done", second.Cached, second.State)
	}

	var after MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &after)
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("cache_hits %d → %d, want +1", before.CacheHits, after.CacheHits)
	}
	if after.Jobs[KindSim].Started != before.Jobs[KindSim].Started {
		t.Fatal("cache hit dispatched a worker run")
	}
	if after.Jobs[KindSim].Submitted != before.Jobs[KindSim].Submitted+1 {
		t.Fatalf("sim jobs submitted %d → %d, want +1",
			before.Jobs[KindSim].Submitted, after.Jobs[KindSim].Submitted)
	}
}

func TestHTTPSubmitValidation(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{
		`{"workload":"nope","system":"hopp"}`,
		`{"workload":"npb-mg","system":"nope"}`,
		`{"workload":"npb-mg","system":"hopp","frac":1.5}`,
		`not json`,
	} {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q status = %d, want 400", body, resp.StatusCode)
		}
	}
	resp := getJSON(t, srv.URL+"/v1/runs/r424242", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status = %d, want 404", resp.StatusCode)
	}
}

// N concurrent HTTP clients submitting the identical (config, seed) all
// get byte-identical serialized Metrics (acceptance criteria).
func TestHTTPDeterminismAcrossConcurrentClients(t *testing.T) {
	const clients = 6
	_, srv := newTestServer(t, Options{Workers: 3})
	results := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(quickReq())
			resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			var st RunStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			deadline := time.Now().Add(60 * time.Second)
			for time.Now().Before(deadline) {
				r, err := http.Get(srv.URL + "/v1/runs/" + st.ID)
				if err != nil {
					errs[i] = err
					return
				}
				err = json.NewDecoder(r.Body).Decode(&st)
				r.Body.Close()
				if err != nil {
					errs[i] = err
					return
				}
				if st.State.Terminal() {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st.State != StateDone {
				errs[i] = fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
				return
			}
			results[i] = st.Metrics
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d metrics diverged from client 0", i)
		}
	}
}

func TestHTTPCancelRun(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 1})
	started := make(chan struct{})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		close(started)
		<-ctx.Done()
		return sim.Metrics{}, ctx.Err()
	}
	st, _ := postRun(t, srv.URL, quickReq())
	<-started
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	final := pollRun(t, srv.URL, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", final.State)
	}
}

func TestHTTPExperimentsList(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	var body struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	getJSON(t, srv.URL+"/v1/experiments", &body)
	if len(body.Experiments) != len(experiments.All()) {
		t.Fatalf("listed %d experiments, want %d", len(body.Experiments), len(experiments.All()))
	}
	if body.Experiments[0].ID != "breakdown" {
		t.Fatalf("first experiment = %s, want breakdown (paper order)", body.Experiments[0].ID)
	}
}

// Resubmitting an experiment job over HTTP is a cache hit: 200 (not
// 202), born done, the same rendered bytes, and no second run. The
// retired streaming route answers 404.
func TestHTTPExperimentJobCached(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 2})
	var calls int
	e.runExp = func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
		calls++
		return []experiments.Table{{Title: "fake " + exp.ID, Header: []string{"x"}, Rows: [][]string{{"1"}}}}, nil
	}
	submit := func() (int, RunStatus) {
		resp, err := http.Post(srv.URL+"/v1/experiments/table2/runs?seed=7&quick=true", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var st RunStatus
		if err := jsonDecode(resp, &st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}
	code, st := submit()
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	first := pollRun(t, srv.URL, st.ID)
	code, second := submit()
	if code != http.StatusOK || !second.Cached || second.State != StateDone {
		t.Fatalf("resubmit = %d %+v, want 200 cached done", code, second)
	}
	if calls != 1 || first.Output != second.Output || !strings.Contains(first.Output, "fake table2") {
		t.Fatalf("experiment ran %d times; outputs %q vs %q", calls, first.Output, second.Output)
	}
	resp, err := http.Post(srv.URL+"/v1/experiments/table2?quick=true", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired streaming route = %d, want 404", resp.StatusCode)
	}
}

// DELETE /v1/runs/{id} on a running experiment job cancels the
// underlying simulations through the job's context.
func TestHTTPExperimentJobCancelStopsRun(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 1})
	entered := make(chan struct{})
	finished := make(chan error, 1)
	e.runExp = func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
		close(entered)
		<-ctx.Done() // a well-behaved experiment unwinds on cancellation
		finished <- ctx.Err()
		return nil, ctx.Err()
	}
	resp, err := http.Post(srv.URL+"/v1/experiments/fig9/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("experiment never started")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	select {
	case err := <-finished:
		if err != context.Canceled {
			t.Fatalf("experiment saw %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not reach the experiment")
	}
	if final := pollRun(t, srv.URL, st.ID); final.State != StateCancelled {
		t.Fatalf("final state = %s, want cancelled", final.State)
	}
	if e.Metrics().Jobs[KindExperiment].Cancelled != 1 {
		t.Fatalf("experiment job not counted cancelled; metrics: %+v", e.Metrics())
	}
}

// SIGTERM handling in hoppd calls Engine.Shutdown; mid-run it must
// drain: the in-flight run completes and is queryable afterwards
// (acceptance criteria).
func TestHTTPGracefulShutdownMidRun(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	release := make(chan struct{})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		<-release
		return sim.Metrics{System: "test", CompletionTime: 42}, nil
	}
	st, _ := postRun(t, srv.URL, quickReq())

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- e.Shutdown(context.Background()) }()

	// Shutdown must be blocked on the in-flight run, not racing past it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a run was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	final := pollRun(t, srv.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("run state after graceful shutdown = %s, want done", final.State)
	}
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"sequential","system":"fastswap"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown = %d, want 503", resp.StatusCode)
	}
}
