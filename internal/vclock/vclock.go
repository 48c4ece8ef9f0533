// Package vclock provides the virtual time base of the simulation: a
// nanosecond-granularity Time, convenience duration constructors, and a
// binary-heap event queue used by the discrete-event machine.
//
// All latencies in the cost model (internal/vmm) and the fabric model
// (internal/rdma) are expressed as vclock durations, so a whole
// experiment is a pure function of its inputs and seed.
package vclock

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string { return Duration(t).String() }

// Micros returns the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns the duration in (fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// Event is a scheduled callback in an EventQueue.
//
// Events fired by RunUntil are recycled into an internal pool for
// Schedule to reuse.
type Event struct {
	When Time
	Fn   func(Time)

	seq  uint64
	free *Event // pool freelist link
}

// EventQueue is a min-heap of events ordered by time, breaking ties by
// insertion order so simulations are deterministic.
//
// The zero value is ready to use.
type EventQueue struct {
	events  []*Event
	nextSeq uint64
	pool    *Event
}

// Schedule enqueues fn to run at time when.
func (q *EventQueue) Schedule(when Time, fn func(Time)) {
	e := q.pool
	if e != nil {
		q.pool = e.free
		e.When, e.Fn, e.free = when, fn, nil
	} else {
		e = &Event{When: when, Fn: fn}
	}
	e.seq = q.nextSeq
	q.nextSeq++
	q.events = append(q.events, e)
	q.up(len(q.events) - 1)
}

// recycle returns a fired event to the pool for reuse by Schedule.
func (q *EventQueue) recycle(e *Event) {
	e.Fn = nil
	e.free = q.pool
	q.pool = e
}

// PeekTime returns the time of the earliest pending event. ok is false if
// the queue is empty.
func (q *EventQueue) PeekTime() (t Time, ok bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].When, true
}

// Pop removes and returns the earliest pending event, or nil if empty.
func (q *EventQueue) Pop() *Event {
	if len(q.events) == 0 {
		return nil
	}
	e := q.events[0]
	last := len(q.events) - 1
	q.swap(0, last)
	q.events[last] = nil
	q.events = q.events[:last]
	q.down(0)
	return e
}

// RunUntil fires, in order, every event scheduled at or before t.
// Events scheduled by callbacks are themselves fired if they fall within
// the horizon.
func (q *EventQueue) RunUntil(t Time) {
	for {
		when, ok := q.PeekTime()
		if !ok || when > t {
			return
		}
		e := q.Pop()
		fn, at := e.Fn, e.When
		q.recycle(e)
		fn(at)
	}
}

func (q *EventQueue) less(i, j int) bool {
	a, b := q.events[i], q.events[j]
	if a.When != b.When {
		return a.When < b.When
	}
	return a.seq < b.seq
}

func (q *EventQueue) swap(i, j int) {
	q.events[i], q.events[j] = q.events[j], q.events[i]
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.events)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
