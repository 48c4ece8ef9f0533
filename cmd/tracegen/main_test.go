package main

import (
	"bytes"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func runCmd(args ...string) (code int, stdout []byte, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.Bytes(), errb.String()
}

// Catalog workloads trace byte-for-byte as they did when tracegen kept
// its own copy of the full-scale constructors: FNV-64a of the first
// 8192 records at seed 1.
func TestTraceHashesPinned(t *testing.T) {
	for _, c := range []struct {
		workload string
		hash     uint64
	}{
		{"ladder", 0xe399d6c3539e39d8},
		{"npb-mg", 0x90f20cacf9d11335},
		{"graphx-pr", 0xbd3980aefa27cd04},
	} {
		code, trace, stderr := runCmd("-workload", c.workload, "-max", "8192")
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.workload, code, stderr)
		}
		h := fnv.New64a()
		h.Write(trace)
		if len(trace) != 8192*6 || h.Sum64() != c.hash {
			t.Errorf("%s: %d bytes, FNV-64a %#x; want %d bytes, %#x", c.workload, len(trace), h.Sum64(), 8192*6, c.hash)
		}
	}
}

// A chunk size below one record is a usage error, reported before any
// generation or any request to the daemon.
func TestBadChunkRecordsExits2(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "unexpected", http.StatusInternalServerError)
	}))
	defer srv.Close()
	for _, n := range []string{"0", "-1"} {
		code, stdout, stderr := runCmd("-workload", "ladder", "-max", "2048", "-hmtt-stream", srv.URL, "-chunk-records", n)
		if code != 2 || len(stdout) != 0 || stderr != usage+"\n" {
			t.Fatalf("-chunk-records %s: exit %d, stdout %q, stderr %q", n, code, stdout, stderr)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("daemon saw %d requests, want 0", n)
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	if code, stdout, _ := runCmd("-workload", "nope"); code != 2 || len(stdout) != 0 {
		t.Fatalf("exit %d, %d stdout bytes; want 2 and none", code, len(stdout))
	}
}
