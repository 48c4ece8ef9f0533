package sim

import (
	"hopp/internal/core"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// Probe schedules an event at when on m's event queue; fire receives the
// machine's access count at the moment the event fires.
func (m *Machine) Probe(when vclock.Time, fire func(accesses uint64)) {
	m.queue.Schedule(when, func(vclock.Time) { fire(m.met.Accesses) })
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, gens ...workload.Generator) *Machine {
	m, err := New(cfg, gens...)
	if err != nil {
		panic(err)
	}
	return m
}

// trainerStats returns the counters of a HoPP machine's three-tier
// trainer.
func trainerStats(m *Machine) core.TrainerStats { return m.pref.Algo.(*core.Trainer).Stats() }
