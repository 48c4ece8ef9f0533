package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverySubmittedJob(t *testing.T) {
	p := NewPool(4, 0)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d jobs, want 100", got)
	}
}

// A single worker must execute jobs in submission order.
func TestPoolFIFOWithOneWorker(t *testing.T) {
	p := NewPool(1, 0)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		if err := p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

// A bounded queue sheds over-limit submissions with ErrQueueFull and
// accepts again once depth drops.
func TestPoolQueueBackpressure(t *testing.T) {
	p := NewPool(1, 2)
	started := make(chan struct{})
	gate := make(chan struct{})
	if err := p.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue empty
	for i := 0; i < 2; i++ {
		if err := p.Submit(func() {}); err != nil {
			t.Fatalf("queue fill %d: %v", i, err)
		}
	}
	if err := p.Submit(func() {}); err != ErrQueueFull {
		t.Fatalf("over-limit Submit = %v, want ErrQueueFull", err)
	}
	if got := p.QueueDepth(); got != 2 {
		t.Fatalf("queue depth = %d, want 2 (rejected job must not enqueue)", got)
	}
	close(gate)
	// Depth drains as the worker catches up; submissions are accepted again.
	deadline := time.Now().Add(10 * time.Second)
	for p.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Submit(func() {}); err != nil {
		t.Fatalf("Submit after drain = %v", err)
	}
	p.Close()
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 0)
	p.Close()
	if err := p.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // second Close must not hang or panic
}

// Close must block until queued jobs have drained.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2, 0)
	var done atomic.Int64
	for i := 0; i < 10; i++ {
		_ = p.Submit(func() {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
		})
	}
	p.Close()
	if got := done.Load(); got != 10 {
		t.Fatalf("Close returned with %d/10 jobs done", got)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers, 0)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	wg.Add(20)
	for i := 0; i < 20; i++ {
		_ = p.Submit(func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	p.Close()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", got, workers)
	}
}
