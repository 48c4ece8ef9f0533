// Command tracegen captures a workload's off-chip memory reference
// trace in the HMTT on-disk format (§V: 6-byte records of sequence
// number, timestamp delta, R/W flag and physical page) and writes it to
// a file — the same artifact the paper's DIMM-snooping tracer produces.
// The workload is any name of the experiment catalog, at full scale
// (hoppsim -list prints them).
//
// With -hmtt-stream it instead plays the tracer's other role: a live
// capture board streaming its buffer to an analysis host. The trace is
// uploaded to a hoppd daemon as an ingest session — chunks PUT strictly
// in order, idempotent by index — with retry and backoff: 429 responses
// honor Retry-After (the daemon's staging ring is full), 5xx and
// network errors back off exponentially and re-sync to the session's
// acked high-water mark, so a daemon restart mid-stream just rewinds
// the upload to the last journaled chunk.
//
// Usage:
//
//	tracegen -workload npb-mg -out mg.hmtt -max 1000000
//	tracegen -workload quicksort -out - | xxd | head
//	tracegen -workload npb-mg -max 500000 -hmtt-stream http://localhost:8080
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/hmtt"
	"hopp/internal/tracepipe"
	"hopp/internal/workload"
)

const usage = "usage: tracegen [-workload NAME] [-max N] [-seed S] [-out FILE | -hmtt-stream URL [-system S] [-frac F] [-window-records N] [-chunk-records N>=1]]"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 on success, 1 on a failed capture or upload,
// 2 on bad usage (including a workload the catalog does not have).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl   = fs.String("workload", "sequential", "catalog workload to trace (full scale)")
		out  = fs.String("out", "-", "output file ('-' = stdout)")
		max  = fs.Int("max", 1_000_000, "max trace records")
		seed = fs.Int64("seed", 1, "randomness seed")

		// Streaming-client mode.
		stream = fs.String("hmtt-stream", "", "stream the trace to a hoppd daemon at this base URL instead of writing -out")
		system = fs.String("system", "hopp", "system under test for the ingest session (streaming mode)")
		frac   = fs.Float64("frac", 0.5, "local memory fraction for the ingest session (streaming mode)")
		window = fs.Int("window-records", 0, "ingest metrics window length in records (0 = daemon default)")
		chunk  = fs.Int("chunk-records", 2048, "records per uploaded chunk, at least 1 (streaming mode)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 || *chunk < 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	gen, ok := experiments.NewWorkload(*wl, false)
	if !ok {
		fmt.Fprintf(stderr, "tracegen: unknown workload %q (have: %s)\n",
			*wl, strings.Join(experiments.WorkloadNames(), ", "))
		return 2
	}
	if *stream != "" {
		var buf bytes.Buffer
		if err := generate(gen, &buf, stderr, *max, *seed); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		err := streamTrace(*stream, buf.Bytes(), stderr, streamOpts{
			workload:      *wl,
			system:        *system,
			frac:          *frac,
			seed:          *seed,
			windowRecords: *window,
			chunkBytes:    *chunk * hmtt.RecordSize,
		})
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		return 0
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}
	if err := generate(gen, w, stderr, *max, *seed); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

// generate captures gen's trace into w and reports its size on stderr.
func generate(gen workload.Generator, w, stderr io.Writer, max int, seed int64) error {
	st, err := tracepipe.Capture(w, gen, seed, max)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tracegen: %d records (%d bytes), %d observed, %d dropped\n",
		st.Records, st.Records*hmtt.RecordSize, st.Observed, st.Dropped)
	return nil
}

// streamOpts parameterizes the ingest session the streaming client
// opens.
type streamOpts struct {
	workload, system string
	frac             float64
	seed             int64
	windowRecords    int
	chunkBytes       int
}

// Retry policy for the streaming client: transient failures (network
// errors, 5xx) back off exponentially from streamBackoffMin, doubling
// to streamBackoffMax, and give up after streamMaxAttempts consecutive
// failures on the same chunk. 429 is not a failure — it is the daemon
// saying "later", and the wait is whatever Retry-After asks.
const (
	streamBackoffMin  = 200 * time.Millisecond
	streamBackoffMax  = 5 * time.Second
	streamMaxAttempts = 8
)

// ingestState is the slice of the daemon's session status the client
// steers by.
type ingestState struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Ingest *struct {
		Phase         string `json:"phase"`
		ChunksAcked   int    `json:"chunks_acked"`
		ChunksDurable int    `json:"chunks_durable"`
		Records       uint64 `json:"records"`
		LossRecords   uint64 `json:"loss_records"`
		HotPages      uint64 `json:"hot_pages"`
		Prefetches    uint64 `json:"prefetches"`
		PrefetchHits  uint64 `json:"prefetch_hits"`
		Windows       int    `json:"windows"`
	} `json:"ingest"`
}

// streamTrace uploads an encoded trace to a hoppd ingest session with
// retry, backoff, and high-water-mark re-sync, then closes the session
// and prints the daemon's windowed summary.
func streamTrace(base string, trace []byte, stderr io.Writer, o streamOpts) error {
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 30 * time.Second}

	open, err := openIngest(client, base, o)
	if err != nil {
		return err
	}
	id := open.ID
	total := (len(trace) + o.chunkBytes - 1) / o.chunkBytes
	fmt.Fprintf(stderr, "tracegen: ingest %s open (%d records in %d chunks)\n",
		id, len(trace)/hmtt.RecordSize, total)

	n := 0
	attempts := 0
	backoff := streamBackoffMin
	for n < total {
		start := n * o.chunkBytes
		end := min(start+o.chunkBytes, len(trace))
		resp, err := client.Do(mustRequest(http.MethodPut,
			fmt.Sprintf("%s/v1/ingests/%s/chunks/%d", base, id, n),
			bytes.NewReader(trace[start:end])))
		if err != nil {
			// Network failure: the ack (if any) was lost. Back off, then
			// re-sync to the daemon's acked high-water mark — a chunk it
			// already staged re-acks idempotently, one it never saw is
			// re-sent.
			if attempts++; attempts > streamMaxAttempts {
				return fmt.Errorf("chunk %d: giving up after %d attempts: %w", n, attempts-1, err)
			}
			time.Sleep(backoff)
			backoff = min(backoff*2, streamBackoffMax)
			if st, serr := ingestStatus(client, base, id); serr == nil && st.Ingest != nil {
				n = st.Ingest.ChunksAcked
			}
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			n++
			attempts = 0
			backoff = streamBackoffMin
		case resp.StatusCode == http.StatusTooManyRequests:
			// Staging ring full: the session is paused, not broken. Honor
			// Retry-After and re-send the same chunk.
			time.Sleep(retryAfter(resp, backoff))
		case resp.StatusCode == http.StatusConflict:
			// Out of order: the daemon's idea of "next" moved — most
			// likely a restart rewound the session to its durable
			// high-water mark. Re-sync and continue from there.
			st, serr := ingestStatus(client, base, id)
			if serr != nil || st.Ingest == nil {
				return fmt.Errorf("chunk %d conflict and status unreadable: %s", n, strings.TrimSpace(string(body)))
			}
			if st.Ingest.Phase == "done" || st.Ingest.Phase == "failed" ||
				st.Ingest.Phase == "expired" || st.Ingest.Phase == "cancelled" {
				return fmt.Errorf("session %s is %s: %s", id, st.Ingest.Phase, st.Error)
			}
			n = st.Ingest.ChunksAcked
		case resp.StatusCode >= 500:
			if attempts++; attempts > streamMaxAttempts {
				return fmt.Errorf("chunk %d: giving up after %d attempts: %s", n, attempts-1, strings.TrimSpace(string(body)))
			}
			time.Sleep(backoff)
			backoff = min(backoff*2, streamBackoffMax)
		default:
			return fmt.Errorf("chunk %d: HTTP %d: %s", n, resp.StatusCode, strings.TrimSpace(string(body)))
		}
	}

	if err := closeIngest(client, base, id); err != nil {
		return err
	}
	return printSummary(client, base, id, stderr)
}

// openIngest opens the session, retrying 429 (the -max-ingests bound)
// with the daemon's Retry-After hint.
func openIngest(client *http.Client, base string, o streamOpts) (ingestState, error) {
	payload, err := json.Marshal(map[string]any{
		"workload":       o.workload,
		"system":         o.system,
		"frac":           o.frac,
		"seed":           o.seed,
		"window_records": o.windowRecords,
	})
	if err != nil {
		return ingestState{}, err
	}
	backoff := streamBackoffMin
	for attempts := 0; ; {
		resp, err := client.Do(mustRequest(http.MethodPost, base+"/v1/ingests", bytes.NewReader(payload)))
		if err != nil {
			if attempts++; attempts > streamMaxAttempts {
				return ingestState{}, fmt.Errorf("opening ingest: %w", err)
			}
			time.Sleep(backoff)
			backoff = min(backoff*2, streamBackoffMax)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
			var st ingestState
			if err := json.Unmarshal(body, &st); err != nil {
				return ingestState{}, fmt.Errorf("opening ingest: bad response: %w", err)
			}
			return st, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			time.Sleep(retryAfter(resp, backoff))
		case resp.StatusCode >= 500:
			if attempts++; attempts > streamMaxAttempts {
				return ingestState{}, fmt.Errorf("opening ingest: %s", strings.TrimSpace(string(body)))
			}
			time.Sleep(backoff)
			backoff = min(backoff*2, streamBackoffMax)
		default:
			return ingestState{}, fmt.Errorf("opening ingest: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
	}
}

// closeIngest ends the stream; idempotent on the daemon side, retried
// on transient failures here.
func closeIngest(client *http.Client, base, id string) error {
	backoff := streamBackoffMin
	for attempts := 0; ; {
		resp, err := client.Do(mustRequest(http.MethodPost, base+"/v1/ingests/"+id+"/close", nil))
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			if resp.StatusCode < 500 {
				return fmt.Errorf("closing ingest: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
			}
		}
		if attempts++; attempts > streamMaxAttempts {
			return fmt.Errorf("closing ingest: giving up after %d attempts", attempts-1)
		}
		time.Sleep(backoff)
		backoff = min(backoff*2, streamBackoffMax)
	}
}

// ingestStatus fetches the session's status snapshot.
func ingestStatus(client *http.Client, base, id string) (ingestState, error) {
	resp, err := client.Get(base + "/v1/ingests/" + id)
	if err != nil {
		return ingestState{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ingestState{}, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	var st ingestState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return ingestState{}, err
	}
	return st, nil
}

// printSummary waits for the session to drain and reports the daemon's
// view of the stream.
func printSummary(client *http.Client, base, id string, stderr io.Writer) error {
	deadline := time.Now().Add(time.Minute)
	var st ingestState
	for {
		var err error
		st, err = ingestStatus(client, base, id)
		if err != nil {
			return err
		}
		if st.State == "done" || st.State == "failed" || st.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s still %s after close", id, st.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if st.State != "done" {
		return fmt.Errorf("session %s finished %s: %s", id, st.State, st.Error)
	}
	if st.Ingest == nil {
		return fmt.Errorf("session %s: no ingest block in status", id)
	}
	fmt.Fprintf(stderr, "tracegen: ingest %s done: %d records (%d lost), %d windows, %d hot pages, %d/%d prefetch hits\n",
		id, st.Ingest.Records, st.Ingest.LossRecords, st.Ingest.Windows,
		st.Ingest.HotPages, st.Ingest.PrefetchHits, st.Ingest.Prefetches)
	return nil
}

// retryAfter reads a 429's Retry-After header, falling back to the
// caller's backoff when absent or unparsable.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// mustRequest builds a request for a URL assembled from parsed flags;
// the inputs cannot produce an invalid one.
func mustRequest(method, url string, body io.Reader) *http.Request {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		panic(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	return req
}
