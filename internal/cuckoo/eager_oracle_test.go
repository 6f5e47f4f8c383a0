package cuckoo

// eagerTable is Table as it was before its banks were allocated on first
// placement and its stash became a fixed array: every bank made in
// newEager, the stash a slice walked with stash[1:] and append. It is the
// reference FuzzTableMatchesEager holds Table to, result for result.
type eagerTable struct {
	banks         [Banks][]entry
	stash         []entry
	bankSize      int
	count         int
	seeds         [Banks]uint64
	victim        int
	MaxStashDepth int
}

func newEager(capacity int) *eagerTable {
	t := &eagerTable{bankSize: bankSizeFor(capacity)}
	for i := range t.banks {
		t.banks[i] = make([]entry, t.bankSize)
	}
	t.seeds = [Banks]uint64{
		0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
	}
	return t
}

func (t *eagerTable) Len() int      { return t.count }
func (t *eagerTable) StashLen() int { return len(t.stash) }

func (t *eagerTable) bucket(bank int, key uint64) int {
	h := key * t.seeds[bank]
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	h ^= h >> 32
	return int(h) & (t.bankSize - 1)
}

func (t *eagerTable) Lookup(key uint64) (uint32, bool) {
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

func (t *eagerTable) Insert(key uint64, val uint32) bool {
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

func (t *eagerTable) place(e entry) bool {
	for b := 0; b < Banks; b++ {
		if b == int(e.from) {
			continue
		}
		slot := &t.banks[b][t.bucket(b, e.key)]
		if !slot.used {
			*slot = entry{key: e.key, val: e.val, used: true}
			return true
		}
	}
	if from := int(e.from); from >= 0 {
		slot := &t.banks[from][t.bucket(from, e.key)]
		if !slot.used {
			*slot = entry{key: e.key, val: e.val, used: true}
			return true
		}
	}
	if len(t.stash) >= StashSize {
		return false
	}
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

func (t *eagerTable) drainStash() {
	for iter := 0; iter < 64 && len(t.stash) > 0; iter++ {
		e := t.stash[0]
		t.stash = t.stash[1:]
		if !t.place(e) {
			t.stash = append(t.stash, e)
			return
		}
	}
}

func (t *eagerTable) Delete(key uint64) bool {
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
