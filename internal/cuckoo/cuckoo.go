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
	banks    [Banks][]entry // a bank is made on its first placement
	stash    [StashSize]entry
	stashN   int
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
// rounded up so each bank is a power of two. Slots prices all of it; a
// bank is allocated on its first placement, bank 0 first.
func New(capacity int) *Table {
	return &Table{bankSize: bankSizeFor(capacity), seeds: [Banks]uint64{
		// Distinct odd multipliers per bank (splitmix-style constants).
		0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
	}}
}

// bankSizeFor is one bank's slots for capacity entries at load factor
// 1/2, rounded up to a power of two for cheap masking, like the RTL.
func bankSizeFor(capacity int) int {
	return 1 << bits.Len(uint((2*max(capacity, 1)+Banks-1)/Banks-1))
}

// SlotsFor returns the physical slots (for memory accounting) that
// New(capacity) provisions, without building the table.
func SlotsFor(capacity int) int { return bankSizeFor(capacity)*Banks + StashSize }

func (t *Table) bucket(bank int, key uint64) int {
	h := key * t.seeds[bank]
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	h ^= h >> 32
	return int(h) & (t.bankSize - 1)
}

// find returns key's slot (nil: absent) and its stash index (-1: in a
// bank). It probes the four banks and the stash — constant time, as in
// hardware where all probes happen in the same cycle. An unmade bank has
// length 0, so the bounds test skips it.
func (t *Table) find(key uint64) (*entry, int) {
	for b := range t.banks {
		bank := t.banks[b]
		if i := t.bucket(b, key); i < len(bank) && bank[i].used && bank[i].key == key {
			return &bank[i], -1
		}
	}
	for i := range t.stashN {
		if t.stash[i].key == key {
			return &t.stash[i], i
		}
	}
	return nil, -1
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(key uint64) (uint32, bool) {
	if e, _ := t.find(key); e != nil {
		return e.val, true
	}
	return 0, false
}

// Insert stores key→val. It returns false when the insertion would stall
// (stash full and no slot freed), which with the paper's 2x provisioning
// indicates the caller exceeded the table's guaranteed capacity. Inserting
// an existing key updates its value.
func (t *Table) Insert(key uint64, val uint32) bool {
	if e, _ := t.find(key); e != nil {
		e.val = val
		return true
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
		// Prefer a different bank than the one we came from.
		if b != int(e.from) && t.put(b, e) {
			return true
		}
	}
	// Allow returning to the origin bank as a last resort.
	if from := int(e.from); from >= 0 && t.put(from, e) {
		return true
	}
	if t.stashN >= StashSize {
		return false
	}
	// Evict the occupant of a rotating bank (every bank is made by now).
	b := t.victim % Banks
	t.victim++
	slot := &t.banks[b][t.bucket(b, e.key)]
	t.stash[t.stashN] = *slot
	t.stash[t.stashN].from = int8(b)
	t.stashN++
	t.MaxStashDepth = max(t.MaxStashDepth, t.stashN)
	*slot = entry{key: e.key, val: e.val, used: true}
	return true
}

// put stores e in bank b if its slot there is free.
func (t *Table) put(b int, e entry) bool {
	if t.banks[b] == nil {
		t.banks[b] = make([]entry, t.bankSize)
	}
	slot := &t.banks[b][t.bucket(b, e.key)]
	if slot.used {
		return false
	}
	*slot = entry{key: e.key, val: e.val, used: true}
	return true
}

// drainStash retries stashed entries, oldest first, until the stash
// empties or 64 retries pass (hardware runs this continuously in the
// background; bounding work per operation keeps the model deterministic).
func (t *Table) drainStash() {
	for iter := 0; iter < 64 && t.stashN > 0; iter++ {
		e := t.stash[0]
		t.stashN--
		copy(t.stash[:], t.stash[1:t.stashN+1])
		t.place(e) // cannot stall: e's stash slot is free
	}
}

// Delete removes key, returning whether it was present. Freeing a bank
// slot lets the stash drain, mirroring the hardware's "stall until some
// entry is released" recovery.
func (t *Table) Delete(key uint64) bool {
	e, i := t.find(key)
	switch {
	case e == nil:
		return false
	case i >= 0:
		t.stashN--
		copy(t.stash[i:], t.stash[i+1:t.stashN+1])
	default:
		*e = entry{}
		t.drainStash()
	}
	t.count--
	return true
}

// StashLen returns the current stash occupancy.
func (t *Table) StashLen() int { return t.stashN }
