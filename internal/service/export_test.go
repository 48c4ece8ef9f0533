package service

import (
	"encoding/json"
	"io"
)

// ReadJournal replays a journal stream back into entries, in append
// order, so the tests can audit what the engine journaled.
func ReadJournal(r io.Reader) ([]JournalEntry, error) {
	var out []JournalEntry
	err := eachJournalLine(r, func(line []byte) error {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	return out, err
}
