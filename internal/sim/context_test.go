package sim

import (
	"context"
	"errors"
	"testing"

	"hopp/internal/workload"
)

// A machine given an already-done context must abandon the run at its
// first cancellation poll and surface ctx.Err().
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := MustNew(Config{LocalMemoryFrac: 0.5, Seed: 1, System: Fastswap()},
		workload.NewSequential(512, 2))
	met, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if met.Accesses != 0 {
		t.Fatalf("cancelled-before-start run simulated %d accesses, want 0", met.Accesses)
	}
}

func TestRunContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := Run(ctx, Config{LocalMemoryFrac: 0.5, Seed: 1, System: Fastswap()},
		workload.NewSequential(512, 2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want context.DeadlineExceeded", err)
	}
}

func TestCompareCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compare(ctx, Config{LocalMemoryFrac: 0.5, Seed: 1},
		workload.NewSequential(512, 2), Fastswap())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compare error = %v, want context.Canceled", err)
	}
}

// countdownCtx is a context whose Done channel closes on its k-th Done
// call, so a test can cancel a run at a chosen cancellation poll.
type countdownCtx struct {
	context.Context
	calls, k int
	ch       chan struct{}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.calls++; c.calls == c.k {
		close(c.ch)
	}
	return c.ch
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.ch:
		return context.Canceled
	default:
		return nil
	}
}

// The cancellation poll counts simulated accesses, not trips through the
// run loop: a trip that plays a whole page visit must not stretch the
// poll interval. RunContext calls Done at most once before its first
// poll and once per poll, so the k-th call comes no later than the poll
// past (k-1)·ctxCheckInterval accesses, which overshoots its multiple
// by less than one visit.
func TestRunContextPollsByAccesses(t *testing.T) {
	for _, k := range []int{1, 2, 3, 10} {
		ctx := &countdownCtx{Context: context.Background(), k: k, ch: make(chan struct{})}
		// No memory limit: after the first pass every access is a mapped
		// page's, so nearly every trip plays a full 64-line visit.
		m := MustNew(Config{Seed: 1, System: HoPP()}, workload.NewSequential(64, 1000))
		met, err := m.RunContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: RunContext error = %v, want context.Canceled", k, err)
		}
		if limit := uint64(k)*ctxCheckInterval + 64; met.Accesses > limit {
			t.Fatalf("k=%d: aborted after %d accesses, want at most %d", k, met.Accesses, limit)
		}
	}
}
