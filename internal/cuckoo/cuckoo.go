// Package cuckoo implements the 4-bank cuckoo hash table with a 4-entry
// stash that FlexDriver's address-translation layer uses to map virtual
// (queue, index) descriptor addresses onto a small shared physical pool
// (paper §5.2, "Address Translation").
//
// The construction follows the paper exactly: four direct-mapped banks so a
// lookup probes all banks (and the stash) in parallel in constant time; an
// insertion that collides evicts an old entry to the stash; the stash then
// re-inserts evicted entries into alternate banks until it drains. The
// table is provisioned at twice the required capacity (load factor 1/2) so
// insertion converges without backpressure in practice; if the stash ever
// fills, Insert reports a stall exactly like the hardware would.
package cuckoo

import "math/bits"

const (
	// Banks is the number of independent hash banks.
	Banks = 4
	// StashSize is the number of overflow entries the stash holds.
	StashSize = 4
)

type entry struct {
	key  uint64
	val  uint32
	used bool
	// from records the bank the entry was last evicted from (-1: none),
	// so the stash prefers a different bank on re-insertion. One byte
	// keeps the entry at 16 B.
	from int8
}

// Table is a fixed-size 4-bank cuckoo hash table mapping uint64 keys to
// uint32 values. Create with New.
type Table struct {
	banks    [Banks][]entry
	stash    []entry
	bankSize int
	count    int
	seeds    [Banks]uint64
	victim   int // rotating eviction pointer, for determinism
	// MaxStashDepth tracks the high-water mark of stash occupancy, an
	// observability hook the hardware exposes as a performance counter.
	MaxStashDepth int
}

// New returns a table guaranteed to hold capacity entries. Per the paper
// the physical table is sized at twice the capacity (load factor 1/2),
// rounded up so each bank is a power of two.
func New(capacity int) *Table {
	t := &Table{bankSize: bankSizeFor(capacity)}
	for i := range t.banks {
		t.banks[i] = make([]entry, t.bankSize)
	}
	// Distinct odd multipliers per bank (splitmix-style constants).
	t.seeds = [Banks]uint64{
		0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
	}
	return t
}

// bankSizeFor is one bank's slots for capacity entries at load factor
// 1/2, rounded up to a power of two for cheap masking, like the RTL.
func bankSizeFor(capacity int) int {
	return 1 << bits.Len(uint((2*max(capacity, 1)+Banks-1)/Banks-1))
}

// SlotsFor returns New(capacity).Slots() without building the table.
func SlotsFor(capacity int) int { return bankSizeFor(capacity)*Banks + StashSize }

// Capacity returns the number of entries the table guarantees to hold
// (half the physical slots).
func (t *Table) Capacity() int { return t.bankSize * Banks / 2 }

// Len returns the number of stored entries, including stashed ones.
func (t *Table) Len() int { return t.count }

// Slots returns the number of physical slots (for memory accounting).
func (t *Table) Slots() int { return t.bankSize*Banks + StashSize }

func (t *Table) bucket(bank int, key uint64) int {
	h := key * t.seeds[bank]
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	h ^= h >> 32
	return int(h) & (t.bankSize - 1)
}

// Lookup returns the value stored for key. It probes the four banks and
// the stash — constant time, as in hardware where all probes happen in the
// same cycle.
func (t *Table) Lookup(key uint64) (uint32, bool) {
	for b := 0; b < Banks; b++ {
		e := &t.banks[b][t.bucket(b, key)]
		if e.used && e.key == key {
			return e.val, true
		}
	}
	for i := range t.stash {
		if t.stash[i].key == key {
			return t.stash[i].val, true
		}
	}
	return 0, false
}

// Insert stores key→val. It returns false when the insertion would stall
// (stash full and no slot freed), which with the paper's 2x provisioning
// indicates the caller exceeded the table's guaranteed capacity. Inserting
// an existing key updates its value.
func (t *Table) Insert(key uint64, val uint32) bool {
	// Update in place if present.
	for b := 0; b < Banks; b++ {
		e := &t.banks[b][t.bucket(b, key)]
		if e.used && e.key == key {
			e.val = val
			return true
		}
	}
	for i := range t.stash {
		if t.stash[i].key == key {
			t.stash[i].val = val
			return true
		}
	}

	if !t.place(entry{key: key, val: val, from: -1}) {
		return false
	}
	t.count++
	t.drainStash()
	return true
}

// place puts e into an empty slot, or evicts a victim to the stash to make
// room. It fails only when every bank slot is taken and the stash is full.
func (t *Table) place(e entry) bool {
	for b := 0; b < Banks; b++ {
		if b == int(e.from) {
			continue // prefer a different bank than the one we came from
		}
		slot := &t.banks[b][t.bucket(b, e.key)]
		if !slot.used {
			*slot = entry{key: e.key, val: e.val, used: true}
			return true
		}
	}
	if from := int(e.from); from >= 0 {
		// Allow returning to the origin bank as a last resort.
		slot := &t.banks[from][t.bucket(from, e.key)]
		if !slot.used {
			*slot = entry{key: e.key, val: e.val, used: true}
			return true
		}
	}
	if len(t.stash) >= StashSize {
		return false
	}
	// Evict the occupant of a rotating bank into the stash.
	b := t.victim % Banks
	t.victim++
	slot := &t.banks[b][t.bucket(b, e.key)]
	victim := *slot
	victim.from = int8(b)
	*slot = entry{key: e.key, val: e.val, used: true}
	t.stash = append(t.stash, victim)
	if len(t.stash) > t.MaxStashDepth {
		t.MaxStashDepth = len(t.stash)
	}
	return true
}

// drainStash retries stashed entries until the stash empties or no
// progress is possible this round (hardware runs this continuously in the
// background; bounding work per operation keeps the model deterministic).
func (t *Table) drainStash() {
	for iter := 0; iter < 64 && len(t.stash) > 0; iter++ {
		e := t.stash[0]
		t.stash = t.stash[1:]
		if !t.place(e) {
			// Stash was full again; put it back and stop.
			t.stash = append(t.stash, e)
			return
		}
	}
}

// Delete removes key, returning whether it was present. Freeing a slot
// lets the stash drain, mirroring the hardware's "stall until some entry
// is released" recovery.
func (t *Table) Delete(key uint64) bool {
	for b := 0; b < Banks; b++ {
		e := &t.banks[b][t.bucket(b, key)]
		if e.used && e.key == key {
			*e = entry{}
			t.count--
			t.drainStash()
			return true
		}
	}
	for i := range t.stash {
		if t.stash[i].key == key {
			t.stash = append(t.stash[:i], t.stash[i+1:]...)
			t.count--
			return true
		}
	}
	return false
}

// StashLen returns the current stash occupancy.
func (t *Table) StashLen() int { return len(t.stash) }
