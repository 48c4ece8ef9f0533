// Command traceanalyze replays an HMTT-format trace file (see
// cmd/tracegen) through the hot page detection table and the stream
// training framework, and reports the §VI-D pattern mix: how much of
// the trace each prefetch tier (SSP / LSP / RSP) identifies, stream
// statistics, and capture-loss diagnostics. This is the offline trace
// study the paper used to discover ladder and ripple streams (§II-B).
// The trace streams through the same tracepipe.Pipeline as a live
// ingest session, so both report the same counts.
//
// Usage:
//
//	tracegen -workload npb-mg -out mg.hmtt
//	traceanalyze mg.hmtt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hopp/internal/core"
	"hopp/internal/memsim"
	"hopp/internal/sim"
	"hopp/internal/tracepipe"
	"hopp/internal/vclock"
)

const usage = "usage: traceanalyze [-n N] <trace.hmtt>"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 on success, 1 on an unreadable, torn or empty
// trace, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Int("n", 8, fmt.Sprintf("hot page threshold N in [1, %d]", memsim.LinesPerPage))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 || *threshold < 1 || *threshold > memsim.LinesPerPage {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "traceanalyze:", err)
		return 1
	}
	defer f.Close()

	// Offline study: identity PPN→VPN, one PID, the paper's three-tier
	// trainer with default parameters.
	pipe, err := tracepipe.New(tracepipe.Config{System: sim.HoPP(), Threshold: *threshold})
	if err != nil {
		fmt.Fprintln(stderr, "traceanalyze:", err)
		return 2
	}
	if _, err := io.Copy(pipe, f); err != nil {
		fmt.Fprintln(stderr, "traceanalyze:", err)
		return 1
	}
	if pipe.Buffered() > 0 {
		fmt.Fprintf(stderr, "traceanalyze: hmtt: read trace: %v\n", io.ErrUnexpectedEOF)
		return 1
	}
	c := pipe.Counts()
	if c.Records == 0 {
		fmt.Fprintln(stderr, "traceanalyze: empty trace")
		return 1
	}

	trainer := pipe.Algorithm().(*core.Trainer)
	ts := trainer.Stats()
	total := ts.Predictions[core.TierSSP] + ts.Predictions[core.TierLSP] + ts.Predictions[core.TierRSP]
	fmt.Fprintf(stdout, "trace             %s\n", path)
	fmt.Fprintf(stdout, "records           %d (%d reads, %d writes), %d lost to capture overflow\n",
		c.Records, c.Reads, c.Writes, c.LossRecords)
	fmt.Fprintf(stdout, "span              %v of reconstructed time\n", vclock.Duration(c.ClockNS()))
	fmt.Fprintf(stdout, "hot pages (N=%d)   %d (%.2f%% of records)\n", *threshold, c.HotPages,
		100*float64(c.HotPages)/float64(c.Records))
	fmt.Fprintf(stdout, "streams           %d created, %d evicted, %d live at end\n",
		ts.StreamsCreated, ts.StreamsEvicted, trainer.LiveStreams())
	fmt.Fprintf(stdout, "identified        %d pattern instances\n", total)
	if total > 0 {
		fmt.Fprintf(stdout, "  simple (SSP)    %d (%.1f%%)\n", ts.Predictions[core.TierSSP],
			100*float64(ts.Predictions[core.TierSSP])/float64(total))
		fmt.Fprintf(stdout, "  ladder (LSP)    %d (%.1f%%)\n", ts.Predictions[core.TierLSP],
			100*float64(ts.Predictions[core.TierLSP])/float64(total))
		fmt.Fprintf(stdout, "  ripple (RSP)    %d (%.1f%%)\n", ts.Predictions[core.TierRSP],
			100*float64(ts.Predictions[core.TierRSP])/float64(total))
	}
	fmt.Fprintf(stdout, "unidentified      %d hot pages produced no prediction\n",
		c.HotPages-total-ts.Duplicates)
	return 0
}
