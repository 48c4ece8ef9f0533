package main

import (
	"math"
	"time"
)

// The machines this benchmark runs on are shared, and their speed for
// memory-heavy code drifts by up to 2x over minutes as neighbours load
// the host's caches. So every host time the end-to-end metrics report
// is scaled to a reference machine speed: right before each timed op
// the benchmark times a fixed kernel of its own (random read-modify-
// writes over a 1 MiB table; of the kernels tried it tracked the
// simulator best) and multiplies the op's host time by
// (calibRefNS / kernel time)^calibExponent. Under heavy contention the
// workloads' host time grows faster than the kernel's (fitted log-log
// slopes 1.0-2.0), in quiet periods slower; the exponent is the one
// that kept both the spread within and the drift between two sets of
// runs smallest (README.md has the numbers). The kernel never touches
// repository code, so a change to the program moves the scaled numbers
// exactly as it moves the raw ones.

// calibRefNS is the kernel's duration on the reference machine.
const calibRefNS = 1e6

// calibExponent is how strongly host time follows the kernel's.
const calibExponent = 1.25

// calibrator runs the kernel over a table allocated once per process.
type calibrator struct {
	table []uint64
	x     uint64
	sink  uint64
	// ns keeps every kernel time of the run.
	ns []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, 1<<17), x: 88172645463325252}
	for i := range c.table {
		c.table[i] = uint64(i)
	}
	c.scale() // fault the table in before the first measured use
	c.ns = nil
	return c
}

// scale times the kernel once and returns the factor that converts host
// time measured next to it into reference-speed time.
func (c *calibrator) scale() float64 {
	mask := uint64(len(c.table) - 1)
	x, s := c.x, c.sink
	start := time.Now()
	for i := 0; i < 300_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += c.table[x&mask]
		c.table[(x>>20)&mask]++
	}
	ns := float64(time.Since(start))
	c.x, c.sink = x, s
	c.ns = append(c.ns, ns)
	return math.Pow(calibRefNS/ns, calibExponent)
}
