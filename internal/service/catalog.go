package service

import (
	"slices"
	"sort"
	"strings"

	"hopp/internal/core"
	"hopp/internal/experiments"
	"hopp/internal/prefetch"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// The catalog is the canonical name → constructor registry shared by the
// daemon and the CLIs (cmd/hoppsim runs through Simulate). Workloads are
// experiments' catalog — the generators the figures plot, at standard
// or quick scale — so a served run and a regenerated figure replay the
// same streams; systems are the HoPP variants below plus every
// prefetch-registry spec. Together with experiments.All this spans the
// whole request space a job can name; RunRequest.Normalize and
// ExperimentRequest.Normalize validate against it before admission, so
// nothing unresolvable ever reaches the queue.

// systemCatalog maps the HoPP-variant system names to constructors.
// Demand-path systems are NOT listed here: they resolve through the
// prefetch registry (sim.DemandSystem), so a scheme registered there is
// immediately servable from runs, sweeps, and the CLIs with no catalog
// edit. Only systems that attach the MC/core stack need an entry.
var systemCatalog = map[string]func() sim.System{
	"hopp": sim.HoPP,
	"hopp-markov": func() sim.System {
		p := core.DefaultParams()
		p.Algorithm = "markov"
		s := sim.HoPPWith(p)
		s.Name = "HoPP-markov"
		return s
	},
	"hopp-bulk": func() sim.System {
		p := core.DefaultParams()
		p.Bulk.Enable = true
		s := sim.HoPPWith(p)
		s.Name = "HoPP-bulk"
		return s
	},
	"hopp-smartevict": func() sim.System {
		p := core.DefaultParams()
		p.SmartEviction = true
		s := sim.HoPPWith(p)
		s.Name = "HoPP-smartevict"
		return s
	},
}

// WorkloadNames returns every catalog workload name, sorted.
func WorkloadNames() []string { return experiments.WorkloadNames() }

// workloadNames is the sorted catalog, listed once for the lookups
// every RunRequest.Normalize makes.
var workloadNames = experiments.WorkloadNames()

// knownWorkload reports whether name (already lower-cased) is a catalog
// workload, without building its generator.
func knownWorkload(name string) bool {
	_, ok := slices.BinarySearch(workloadNames, name)
	return ok
}

// SystemNames returns every servable system spec, sorted: the HoPP
// variants plus every advertised prefetch-registry spec.
func SystemNames() []string {
	names := prefetch.Specs()
	for name := range systemCatalog { //hopplint:sorted names are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NumWorkloads reports the catalog workload count (a /metrics gauge).
func NumWorkloads() int { return len(workloadNames) }

// NumSystems reports the servable system count (a /metrics gauge):
// HoPP variants plus advertised registry specs.
func NumSystems() int { return len(systemCatalog) + len(prefetch.Specs()) }

// canonicalSystem resolves any accepted system spec to its canonical
// form: HoPP-variant names pass through, everything else canonicalizes
// via the prefetch registry (depth?n=16 → depth-16).
func canonicalSystem(name string) (string, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	if _, ok := systemCatalog[n]; ok {
		return n, true
	}
	canon, err := prefetch.Canonical(n)
	if err != nil {
		return "", false
	}
	return canon, true
}

// NewWorkload builds a catalog workload at standard (or quick) scale.
func NewWorkload(name string, quick bool) (workload.Generator, bool) {
	return experiments.NewWorkload(strings.ToLower(name), quick)
}

// NewSystem builds a servable system from a catalog name or a
// prefetch-registry spec.
func NewSystem(name string) (sim.System, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	if f, ok := systemCatalog[n]; ok {
		return f(), true
	}
	sys, err := sim.DemandSystem(n)
	if err != nil {
		return sim.System{}, false
	}
	return sys, true
}
