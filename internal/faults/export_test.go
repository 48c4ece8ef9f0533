package faults

import "math/rand"

// Rules and counters only this package's tests use.

// Never fires on no hit; arming a site with Never still counts hits,
// which lets a test observe traffic through a site without perturbing it.
func Never() Rule { return ruleFunc(func(uint64, *rand.Rand) bool { return false }) }

// EveryNth fires on hits n, 2n, 3n, … (n <= 1 means every hit).
func EveryNth(n uint64) Rule {
	if n <= 1 {
		return Always()
	}
	return ruleFunc(func(hit uint64, _ *rand.Rand) bool { return hit%n == 0 })
}

// Probability fires each hit independently with probability p, drawn
// from the injector's seeded source: same seed, same arrival order,
// same faults.
func Probability(p float64) Rule {
	return ruleFunc(func(_ uint64, rng *rand.Rand) bool { return rng.Float64() < p })
}

// Hits reports arrivals counted at an armed site.
func (in *Injector) Hits(name string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		return s.hits
	}
	return 0
}
