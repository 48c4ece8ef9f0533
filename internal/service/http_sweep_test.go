package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hopp/internal/faults"
)

func postSweep(t *testing.T, base string, req SweepRequest) (RunStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode sweep submit response: %v", err)
	}
	return st, resp.StatusCode
}

// pollSweep polls GET /v1/sweeps/{id} until the parent is terminal.
func pollSweep(t *testing.T, base, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st RunStatus
		resp := getJSON(t, base+"/v1/sweeps/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET sweep %s: status %d", id, resp.StatusCode)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished", id)
	return RunStatus{}
}

// readResults fetches the NDJSON results stream and returns the raw
// body plus the decoded points.
func readResults(t *testing.T, url string) (string, []SweepPoint) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var points []SweepPoint
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var pt SweepPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		points = append(points, pt)
	}
	return string(raw), points
}

// The sweep surface end-to-end over HTTP: submit a grid, poll the
// parent aggregate, stream the per-point results.
func TestHTTPSweepSubmitPollResults(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})
	st, code := postSweep(t, srv.URL, quickSweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if st.Kind != KindSweep || st.Sweep == nil || st.Sweep.Total != 4 {
		t.Fatalf("submission = %+v", st)
	}

	final := pollSweep(t, srv.URL, st.ID)
	if final.State != StateDone || final.Sweep.Done != 4 {
		t.Fatalf("final = %s %+v", final.State, final.Sweep)
	}

	raw1, points := readResults(t, srv.URL+"/v1/sweeps/"+st.ID+"/results")
	if len(points) != 4 {
		t.Fatalf("results stream has %d points, want 4", len(points))
	}
	for i, pt := range points {
		if pt.Index != i || pt.State != StateDone || len(pt.Metrics) == 0 {
			t.Fatalf("point %d = %+v", i, pt)
		}
	}

	// Deterministic order: a second read of the finished sweep is
	// byte-identical.
	raw2, _ := readResults(t, srv.URL+"/v1/sweeps/"+st.ID+"/results")
	if raw1 != raw2 {
		t.Fatalf("two reads of a finished sweep diverged:\n%s\nvs\n%s", raw1, raw2)
	}

	// The parent is also visible on the generic job surface.
	var asRun RunStatus
	if resp := getJSON(t, srv.URL+"/v1/runs/"+st.ID, &asRun); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/runs/{sweep}: %d", resp.StatusCode)
	}
	if asRun.Kind != KindSweep || asRun.Sweep == nil {
		t.Fatalf("sweep via /v1/runs = %+v", asRun)
	}
}

// ?follow=true tails a live sweep: every point arrives, in order,
// without polling.
func TestHTTPSweepFollowStreamsAllPoints(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})
	st, code := postSweep(t, srv.URL, quickSweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	_, points := readResults(t, srv.URL+"/v1/sweeps/"+st.ID+"/results?follow=true")
	if len(points) != 4 {
		t.Fatalf("follow stream delivered %d points, want 4", len(points))
	}
	for i, pt := range points {
		if pt.Index != i || !pt.State.Terminal() {
			t.Fatalf("point %d = %+v", i, pt)
		}
	}
}

func TestHTTPSweepBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, MaxSweepPoints: 2})

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", code)
	}
	if code := post(`{"workloads":["nope"],"systems":["hopp"]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d, want 400", code)
	}
	if code := post(`{"workloads":["sequential"],"systems":["hopp","fastswap","leap"],"quick":true}`); code != http.StatusBadRequest {
		t.Fatalf("grid over -max-sweep-points: %d, want 400", code)
	}

	if resp := getJSON(t, srv.URL+"/v1/sweeps/r999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep: %d, want 404", resp.StatusCode)
	}
	// A sim job ID is not addressable through the sweep surface.
	st, _ := postRun(t, srv.URL, quickReq())
	pollRun(t, srv.URL, st.ID)
	if resp := getJSON(t, srv.URL+"/v1/sweeps/"+st.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sim via sweep surface: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE sim via sweep surface: %d, want 404 (must not cancel non-sweeps)", resp.StatusCode)
	}
}

func TestHTTPSweepCancel(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 2})
	_, _, release := parkSweepSims(t, e)
	st, code := postSweep(t, srv.URL, quickSweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE sweep: %d, want 200", resp.StatusCode)
	}
	release()
	final := pollSweep(t, srv.URL, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled sweep ended %s", final.State)
	}
}

// Satellite: a request body that dies mid-upload (injected at
// SiteHTTPBodyRead) sheds with 400 before the engine sees the grid —
// no parent, no children, no registry growth.
func TestHTTPSweepBodyReadFaultShedsBeforeEngine(t *testing.T) {
	inj := faults.New(1)
	e, srv := newTestServer(t, Options{Workers: 1, Faults: inj})
	inj.Enable(faults.SiteHTTPBodyRead, faults.Always())

	body, _ := json.Marshal(quickSweep())
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn upload: %d, want 400", resp.StatusCode)
	}
	if inj.Fired(faults.SiteHTTPBodyRead) == 0 {
		t.Fatal("body-read fault never fired")
	}
	if m := e.Metrics(); m.RegistrySize != 0 {
		t.Fatalf("torn upload left %d registry entries", m.RegistrySize)
	}

	// Same for the single-run route: the decoder sees the injected error.
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"sequential","system":"fastswap","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn run upload: %d, want 400", resp.StatusCode)
	}

	// Disarmed, the same bytes go through.
	inj.Disable(faults.SiteHTTPBodyRead)
	st, code := postSweep(t, srv.URL, quickSweep())
	if code != http.StatusAccepted {
		t.Fatalf("healthy submit after fault: %d", code)
	}
	pollSweep(t, srv.URL, st.ID)
}

// Satellite: a results-stream write failure mid-NDJSON tears that one
// response and nothing else — the engine keeps serving, and a healthy
// re-read gets the full stream.
func TestHTTPSweepResultsWriteFaultTearsOnlyThatStream(t *testing.T) {
	inj := faults.New(1)
	_, srv := newTestServer(t, Options{Workers: 2, Faults: inj})
	st, code := postSweep(t, srv.URL, quickSweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollSweep(t, srv.URL, st.ID)

	// Fail the write before the third point: the stream ends after two
	// complete lines, never a half-written one.
	inj.Enable(faults.SiteHTTPResultsWrite, faults.OnHits(3))
	raw, points := readResults(t, srv.URL+"/v1/sweeps/"+st.ID+"/results")
	if len(points) != 2 {
		t.Fatalf("torn stream has %d points, want 2: %q", len(points), raw)
	}

	inj.Disable(faults.SiteHTTPResultsWrite)
	_, full := readResults(t, srv.URL+"/v1/sweeps/"+st.ID+"/results")
	if len(full) != 4 {
		t.Fatalf("healthy re-read has %d points, want 4", len(full))
	}
}

// Satellite (-race): a client that stalls mid-stream parks only its own
// handler goroutine on the injector's gate. The engine and other
// requests keep moving, and the stalled client's disconnect releases
// the handler.
func TestHTTPSweepSlowClientStallsOnlyItself(t *testing.T) {
	inj := faults.New(1)
	_, srv := newTestServer(t, Options{Workers: 2, Faults: inj})
	st, code := postSweep(t, srv.URL, quickSweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollSweep(t, srv.URL, st.ID)

	gate := inj.Gate(faults.SiteHTTPStreamStall)
	inj.Enable(faults.SiteHTTPStreamStall, faults.OnHits(1))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/sweeps/"+st.ID+"/results", nil)
	stalled := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		stalled <- err
	}()

	// Deterministic "the client is stuck": the handler is parked on the
	// gate, not spinning, not holding engine locks.
	deadline := time.Now().Add(30 * time.Second)
	for gate.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("results handler never parked on the stall gate")
		}
		time.Sleep(time.Millisecond)
	}

	// Everyone else still gets service while the stream is stalled.
	run, code := postRun(t, srv.URL, quickReq())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit during stall: %d", code)
	}
	if final := pollRun(t, srv.URL, run.ID); final.State != StateDone {
		t.Fatalf("run during stall: %s (%s)", final.State, final.Error)
	}
	if resp := getJSON(t, srv.URL+"/metrics", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics during stall: %d", resp.StatusCode)
	}

	// The stalled client hangs up; its context unparks the handler.
	cancel()
	if err := <-stalled; err == nil {
		t.Fatal("stalled request ended without error despite cancellation")
	}
	deadline = time.Now().Add(30 * time.Second)
	for gate.Waiters() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler still parked after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}
