package sim

import (
	"context"
	"runtime"
	"sync"

	"hopp/internal/workload"
)

// machineSlots bounds how many machines RunMachine keeps alive at once,
// process-wide: one per scheduler thread (GOMAXPROCS at program start),
// so a fan-out of dozens of simulations holds only as many machines'
// memory as there are cores to run them.
var machineSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// RunMachine builds a machine over gens (see New) and runs it to
// completion while holding one of the process-wide machine slots. It
// waits for a free slot first, giving up with ctx.Err() if ctx ends
// before one frees. Every simulation a Fan task drives goes through
// here, so nested fan-outs share the one bound without deadlocking:
// tasks hold a slot only while their machine exists, never while they
// wait on sub-tasks.
func RunMachine(ctx context.Context, cfg Config, gens ...workload.Generator) (Metrics, error) {
	select {
	case machineSlots <- struct{}{}:
	case <-ctx.Done():
		return Metrics{}, ctx.Err()
	}
	defer func() { <-machineSlots }()
	m, err := New(cfg, gens...)
	if err != nil {
		return Metrics{}, err
	}
	return m.RunContext(ctx)
}

// Fan runs task(ctx, i) for every i in [0, n), each on its own
// goroutine, and returns once all of them have returned. The result is
// what a sequential loop over i stopping at the first failure would
// give: the lowest-index error, or nil. When task i fails, the contexts
// of tasks above i are cancelled — their results can no longer matter —
// while the tasks below i run on. A panicking task counts as a failure
// at its index, and its value is re-raised on the caller's goroutine
// after the join, so a recover in the caller still contains it.
func Fan(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	errs := make([]error, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			ok := false
			defer func() {
				if !ok {
					panics[i] = recover()
					for _, cancel := range cancels[i+1:] {
						cancel()
					}
				}
			}()
			errs[i] = task(ctxs[i], i)
			ok = errs[i] == nil
		}(i)
	}
	wg.Wait()
	for _, cancel := range cancels {
		cancel()
	}
	for i := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
