package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hopp/internal/hmtt"
	"hopp/internal/mc"
	"hopp/internal/memsim"
	"hopp/internal/service"
	"hopp/internal/sim"
	"hopp/internal/tracepipe"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// capture is `tracegen -workload <gen> -max 20000 -seed 1`.
func capture(t *testing.T, gen workload.Generator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracepipe.Capture(&buf, gen, 1, 20000); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTrace stores a trace under the test's temp dir and returns its
// path.
func writeTrace(t *testing.T, name string, trace []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runT(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// The report is pinned byte for byte against output captured before
// traceanalyze streamed through tracepipe; quicksort's records are all
// WRITEs, which count toward hot pages like READs.
func TestGoldenOutput(t *testing.T) {
	for name, gen := range map[string]workload.Generator{
		"ladder":    workload.NewLadder(2048, 3),
		"quicksort": workload.NewQuicksort(3072),
	} {
		t.Run(name, func(t *testing.T) {
			path := writeTrace(t, name+".hmtt", capture(t, gen))
			code, stdout, stderr := runT(path)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			want, err := os.ReadFile("testdata/" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Replace(stdout, path, name+".hmtt", 1); got != string(want) {
				t.Fatalf("output diverged:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestTornTrailingRecordFails(t *testing.T) {
	trace := capture(t, workload.NewLadder(2048, 3))
	code, stdout, stderr := runT(writeTrace(t, "torn.hmtt", trace[:1003]))
	if code != 1 || stdout != "" || stderr != "traceanalyze: hmtt: read trace: unexpected EOF\n" {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	code, _, stderr = runT(writeTrace(t, "empty.hmtt", nil))
	if code != 1 || stderr != "traceanalyze: empty trace\n" {
		t.Fatalf("empty trace: exit %d, stderr %q", code, stderr)
	}
}

func TestBadUsageExits2(t *testing.T) {
	path := writeTrace(t, "t.hmtt", capture(t, workload.NewLadder(2048, 3)))
	for _, args := range [][]string{{"-n", "65", path}, {"-n", "-1", path}, {"-n", "0", path}, {}, {path, path}} {
		code, stdout, stderr := runT(args...)
		if code != 2 || stdout != "" || stderr != usage+"\n" {
			t.Fatalf("%q: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
	if code, _, _ := runT("-n", "64", path); code != 0 {
		t.Fatalf("-n 64: exit %d", code)
	}
}

// agreed are the counts every path reports for one trace.
type agreed struct {
	records, reads, writes, loss, hot uint64
}

// One trace with READ and WRITE records gives the same counts through
// the pipeline itself, a live ingest session fed non-record-aligned
// chunks, traceanalyze, and the simulator's memory controller fed the
// same pages under identity mappings — the MC sees every record as an
// LLC miss, so its miss and hot-page counters are the other paths'
// records and hot pages.
func TestCrossPathAgreement(t *testing.T) {
	trace := mixedTrace(t)

	// (a) The pipeline.
	pipe, err := tracepipe.New(tracepipe.Config{System: sim.HoPP()})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Feed(trace, nil)
	c := pipe.Counts()
	want := agreed{c.Records, c.Reads, c.Writes, c.LossRecords, c.HotPages}
	if want.reads == 0 || want.writes == 0 || want.hot == 0 || want.loss != 0 {
		t.Fatalf("trace does not exercise both record kinds: %+v", want)
	}

	// (b) An ingest session.
	e := service.NewEngine(service.Options{Workers: 1})
	defer e.Close()
	st, err := e.OpenIngest(service.IngestRequest{System: "hopp", WindowRecords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for n, off := 0, 0; off < len(trace); n, off = n+1, off+1001 {
		if _, err := e.IngestChunk(context.Background(), st.ID, n, bytes.NewReader(trace[off:min(off+1001, len(trace))])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CloseIngest(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := e.Wait(ctx, st.ID)
	if err != nil || fin.State != service.StateDone {
		t.Fatalf("ingest finished %+v, %v", fin, err)
	}
	in := fin.Ingest
	if got := (agreed{in.Records, in.Reads, in.Writes, in.LossRecords, in.HotPages}); got != want {
		t.Fatalf("ingest %+v, pipeline %+v", got, want)
	}

	// (c) traceanalyze.
	code, stdout, stderr := runT(writeTrace(t, "mixed.hmtt", trace))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var got agreed
	lines := strings.Split(stdout, "\n")
	if _, err := fmt.Sscanf(lines[1], "records %d (%d reads, %d writes), %d lost", &got.records, &got.reads, &got.writes, &got.loss); err != nil {
		t.Fatalf("parse %q: %v", lines[1], err)
	}
	if _, err := fmt.Sscanf(lines[3], "hot pages (N=8) %d", &got.hot); err != nil {
		t.Fatalf("parse %q: %v", lines[3], err)
	}
	if got != want {
		t.Fatalf("traceanalyze %+v, pipeline %+v", got, want)
	}

	// (d) The memory controller.
	ctl := mc.MustNew(mc.Config{})
	var clock int64
	var d hmtt.Decoder
	d.Feed(trace, func(r hmtt.Record, _ int) {
		ctl.Preload(r.Page, 1, memsim.VPN(r.Page))
		clock += int64(r.TimestampDelta)
		ctl.ObserveMiss(vclock.Time(clock*hmtt.TickNS), memsim.PAddr(uint64(r.Page)<<memsim.PageShift), r.Write)
	})
	ms := ctl.Stats()
	if got := (agreed{ms.ReadMisses + ms.WriteMisses, ms.ReadMisses, ms.WriteMisses, d.State().Lost, ms.HotEmitted}); got != want {
		t.Fatalf("mc %+v, pipeline %+v", got, want)
	}
	if ms.HotUnmapped != 0 {
		t.Fatalf("%d hot pages unmapped under identity mappings", ms.HotUnmapped)
	}
}

// mixedTrace is a quicksort capture (all WRITEs) followed by a ladder
// capture (all READs), renumbered into one contiguous sequence.
func mixedTrace(t *testing.T) []byte {
	t.Helper()
	trace := append(capture(t, workload.NewQuicksort(3072)), capture(t, workload.NewLadder(2048, 3))...)
	for i := 0; i*hmtt.RecordSize < len(trace); i++ {
		trace[i*hmtt.RecordSize] = uint8(i)
	}
	return trace
}
