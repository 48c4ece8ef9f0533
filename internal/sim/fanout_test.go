package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hopp/internal/workload"
)

// Fan reports what a sequential loop would: the lowest-index failure,
// even when a higher index fails first, and it cancels only the tasks
// above the failing index.
func TestFanReturnsLowestIndexError(t *testing.T) {
	failed5 := make(chan struct{})
	var belowRanClean atomic.Int64
	err := Fan(context.Background(), 8, func(ctx context.Context, i int) error {
		switch {
		case i == 5:
			close(failed5)
			return fmt.Errorf("task %d", i)
		case i == 1:
			<-failed5
			time.Sleep(10 * time.Millisecond)
			if ctx.Err() != nil {
				return fmt.Errorf("task 1 cancelled by a higher-index failure")
			}
			return fmt.Errorf("task %d", i)
		case i > 5:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				return fmt.Errorf("task %d never cancelled", i)
			}
		default:
			<-failed5
			if ctx.Err() == nil {
				belowRanClean.Add(1)
			}
			return nil
		}
	})
	if err == nil || err.Error() != "task 1" {
		t.Fatalf("Fan error = %v, want task 1", err)
	}
	if n := belowRanClean.Load(); n != 4 {
		t.Fatalf("%d of the 4 tasks below the failure kept a live context", n)
	}
}

// Every task has returned by the time Fan does, on success and failure.
func TestFanJoinsEveryTask(t *testing.T) {
	for _, failAt := range []int{-1, 0, 3} {
		var live atomic.Int64
		err := Fan(context.Background(), 6, func(ctx context.Context, i int) error {
			live.Add(1)
			defer live.Add(-1)
			if i == failAt {
				return errors.New("fail")
			}
			time.Sleep(time.Duration(i) * time.Millisecond)
			return nil
		})
		if (err != nil) != (failAt >= 0) {
			t.Fatalf("failAt %d: err = %v", failAt, err)
		}
		if n := live.Load(); n != 0 {
			t.Fatalf("failAt %d: %d tasks still running after Fan returned", failAt, n)
		}
	}
}

// A panicking task is re-raised on the caller's goroutine, where a
// recover (the service's job containment) can still catch it.
func TestFanReraisesPanicOnCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	_ = Fan(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	t.Fatal("Fan returned instead of re-raising the task's panic")
}

// RunMachine builds no machine while every slot is taken, and a
// cancelled wait gives up with the context's error.
func TestRunMachineWaitsForASlot(t *testing.T) {
	for i := 0; i < cap(machineSlots); i++ {
		machineSlots <- struct{}{}
	}
	released := false
	release := func() {
		if !released {
			released = true
			for i := 0; i < cap(machineSlots); i++ {
				<-machineSlots
			}
		}
	}
	defer release()

	cfg := Config{LocalMemoryFrac: 0.5, Seed: 1, System: Fastswap()}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := RunMachine(ctx, cfg, workload.NewSequential(64, 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunMachine with no free slot = %v, want context.DeadlineExceeded", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := RunMachine(context.Background(), cfg, workload.NewSequential(64, 1))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("RunMachine ran without a free slot (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
