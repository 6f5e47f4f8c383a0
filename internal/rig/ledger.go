package rig

import (
	"encoding/binary"

	"flexdriver/internal/sim"
)

// Stamp writes an 8-byte big-endian ordinal into f at off.
func Stamp(f []byte, off int, seq int64) { binary.BigEndian.PutUint64(f[off:], uint64(seq)) }

// Unstamp reads the ordinal Stamp wrote.
func Unstamp(f []byte, off int) int64 { return int64(binary.BigEndian.Uint64(f[off:])) }

// Ledger is one sender's per-ordinal conservation record: when each
// ordinal was issued and how many times it came back. Ordinals arrive off
// the wire, so Deliver bounds-checks them on both sides — a corrupted
// stamp must become a counted ghost, never an index.
type Ledger struct {
	ords []ordinal
	// Ghosts counts delivered ordinals that were never issued.
	Ghosts int64
}

type ordinal struct {
	at   sim.Time
	recv int32
}

// Issue records the next ordinal as sent at now and returns it.
func (l *Ledger) Issue(now sim.Time) int64 {
	l.ords = append(l.ords, ordinal{at: now})
	return int64(len(l.ords) - 1)
}

// Sent returns how many ordinals have been issued.
func (l *Ledger) Sent() int64 { return int64(len(l.ords)) }

// Deliver records one arrival of seq and returns when it was issued; ok
// is false (and the arrival a ghost) when seq was never issued.
func (l *Ledger) Deliver(seq int64) (sentAt sim.Time, ok bool) {
	if seq < 0 || seq >= int64(len(l.ords)) {
		l.Ghosts++
		return 0, false
	}
	o := &l.ords[seq]
	o.recv++
	return o.at, true
}

// Tally judges the record: ordinals that never arrived, and arrivals
// beyond the first.
func (l *Ledger) Tally() (lost, dups int64) {
	for _, o := range l.ords {
		switch {
		case o.recv == 0:
			lost++
		case o.recv > 1:
			dups += int64(o.recv) - 1
		}
	}
	return lost, dups
}
