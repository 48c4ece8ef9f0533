package service

import (
	"errors"
	"sync"
	"time"
)

// ErrClientLimited rejects a submission because its client exhausted
// its per-client token bucket. The HTTP layer maps it to 429 with the
// same adaptive Retry-After hint queue overload uses; unlike
// ErrOverloaded it says nothing about the shared queue — other clients
// are still being admitted, which is the whole point.
var ErrClientLimited = errors.New("service: client rate limit exceeded, retry later")

// DefaultAdmissionClients bounds the distinct client buckets a limiter
// tracks; past it the stalest bucket is recycled, keeping the limiter
// O(configuration) under address-churning traffic.
const DefaultAdmissionClients = 4096

// clientBucket is one client's token bucket plus its admission counters.
type clientBucket struct {
	tokens   float64
	last     time.Time
	admitted uint64
	limited  uint64
}

// ClientLimiter is per-client fairness in front of the shared queue: a
// token bucket per client key (API key or remote address), refilled at
// rate tokens/sec up to burst. A hot client drains only its own bucket
// and collects 429s while everyone else's submissions keep flowing —
// before this layer, admission control was global and one flooding
// client could starve the queue for all.
//
// Determinism seam: the clock is an injectable now() (tests pin it, so
// refill arithmetic is exact, not sleep-calibrated).
type ClientLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second per client
	burst   float64 // bucket capacity (initial allowance)
	max     int     // distinct buckets tracked
	now     func() time.Time
	clients map[string]*clientBucket

	admitted uint64 // global admissions through this limiter
	limited  uint64 // global denials
}

// NewClientLimiter builds a limiter admitting rate submissions/sec per
// client with bursts up to burst. maxClients <= 0 means
// DefaultAdmissionClients; burst < 1 is raised to 1 so a fresh client
// can always submit at least once.
func NewClientLimiter(rate, burst float64, maxClients int) *ClientLimiter {
	if burst < 1 {
		burst = 1
	}
	if maxClients <= 0 {
		maxClients = DefaultAdmissionClients
	}
	return &ClientLimiter{
		rate:    rate,
		burst:   burst,
		max:     maxClients,
		now:     time.Now,
		clients: make(map[string]*clientBucket),
	}
}

// Allow spends one token from key's bucket, reporting whether the
// submission is admitted. A nil limiter admits everything — the
// daemon's default when -client-rate is off.
func (l *ClientLimiter) Allow(key string) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.clients[key]
	if !ok {
		if len(l.clients) >= l.max {
			l.evictStalestLocked()
		}
		b = &clientBucket{tokens: l.burst, last: now}
		l.clients[key] = b
	} else {
		if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
			b.tokens += elapsed * l.rate
			if b.tokens > l.burst {
				b.tokens = l.burst
			}
		}
		b.last = now
	}
	if b.tokens < 1 {
		b.limited++
		l.limited++
		return false
	}
	b.tokens--
	b.admitted++
	l.admitted++
	return true
}

// evictStalestLocked recycles the least-recently-seen bucket; l.mu must
// be held. The evicted client starts over with a full burst on its next
// submission — strictly more permissive, never less, so recycling can't
// be used to starve anyone.
func (l *ClientLimiter) evictStalestLocked() {
	var stalest string
	var stalestAt time.Time
	first := true
	for key, b := range l.clients {
		if first || b.last.Before(stalestAt) {
			stalest, stalestAt, first = key, b.last, false
		}
	}
	if !first {
		delete(l.clients, stalest)
	}
}

// ClientAdmission is one client's admission counters in /metrics.
type ClientAdmission struct {
	Admitted uint64 `json:"admitted"`
	Limited  uint64 `json:"limited"`
}

// AdmissionSnapshot is the fairness layer's /metrics block: the
// configured bucket parameters, global admitted/limited totals, and the
// per-client breakdown (bounded by the tracked-clients cap;
// encoding/json sorts the map keys, so the serialized form is stable).
type AdmissionSnapshot struct {
	RatePerSec float64                    `json:"rate_per_sec"`
	Burst      float64                    `json:"burst"`
	Admitted   uint64                     `json:"admission_admitted"`
	Limited    uint64                     `json:"admission_limited"`
	Clients    int                        `json:"admission_clients"`
	PerClient  map[string]ClientAdmission `json:"per_client,omitempty"`
}

// Snapshot copies the limiter's counters. Nil-safe (reports a zero
// snapshot) so callers can snapshot unconditionally.
func (l *ClientLimiter) Snapshot() AdmissionSnapshot {
	if l == nil {
		return AdmissionSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := AdmissionSnapshot{
		RatePerSec: l.rate,
		Burst:      l.burst,
		Admitted:   l.admitted,
		Limited:    l.limited,
		Clients:    len(l.clients),
	}
	if len(l.clients) > 0 {
		s.PerClient = make(map[string]ClientAdmission, len(l.clients))
		for key, b := range l.clients {
			s.PerClient[key] = ClientAdmission{Admitted: b.admitted, Limited: b.limited}
		}
	}
	return s
}
