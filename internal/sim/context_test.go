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
