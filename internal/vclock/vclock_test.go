package vclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2300, "2.30us"},
		{4 * Microsecond, "4.00us"},
		{5 * Millisecond, "5.000ms"},
		{2 * Second, "2.0000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d", t1)
	}
	if t1.Sub(t0) != 50 {
		t.Fatalf("Sub: got %d", t1.Sub(t0))
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatal("Before/After broken")
	}
}

func TestEventQueueOrder(t *testing.T) {
	var q EventQueue
	var fired []int
	q.Schedule(30, func(Time) { fired = append(fired, 3) })
	q.Schedule(10, func(Time) { fired = append(fired, 1) })
	q.Schedule(20, func(Time) { fired = append(fired, 2) })
	q.RunUntil(25)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
	q.RunUntil(100)
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

func TestEventQueueTieBreakFIFO(t *testing.T) {
	var q EventQueue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func(Time) { fired = append(fired, i) })
	}
	q.RunUntil(5)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", fired)
		}
	}
}

func TestEventQueueReentrantSchedule(t *testing.T) {
	var q EventQueue
	var fired []Time
	q.Schedule(10, func(now Time) {
		fired = append(fired, now)
		q.Schedule(now.Add(5), func(now2 Time) { fired = append(fired, now2) })
	})
	q.RunUntil(20)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestEventQueuePop(t *testing.T) {
	var q EventQueue
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue should return nil")
	}
	q.Schedule(7, func(Time) {})
	e := q.Pop()
	if e == nil || e.When != 7 {
		t.Fatalf("Pop = %+v", e)
	}
	if len(q.events) != 0 {
		t.Fatal("queue not drained")
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEventQueueOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q EventQueue
		count := int(n%64) + 1
		times := make([]Time, count)
		var fired []Time
		for i := range times {
			times[i] = Time(rng.Intn(1000))
			q.Schedule(times[i], func(now Time) {
				fired = append(fired, now)
			})
		}
		q.RunUntil(2000)
		if len(fired) != count {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
