package sim

import "hopp/internal/vclock"

// Probe schedules an event at when on m's event queue; fire receives the
// machine's access count at the moment the event fires.
func (m *Machine) Probe(when vclock.Time, fire func(accesses uint64)) {
	m.queue.Schedule(when, func(vclock.Time) { fire(m.met.Accesses) })
}
