package cuckoo

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEntryIs16Bytes pins the slot layout: key, value, used and the
// origin bank pack into two words, so a four-bank probe touches four
// 16-byte slots and both FLD translation tables cost 16 B per slot.
func TestEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("sizeof(entry) = %d, want 16", got)
	}
}

func TestSlotsForMatchesNew(t *testing.T) {
	for c := -1; c <= 10000; c++ {
		if got, want := SlotsFor(c), New(c).Slots(); got != want {
			t.Fatalf("SlotsFor(%d) = %d, New(%d).Slots() = %d", c, got, c, want)
		}
	}
}

func TestInsertLookup(t *testing.T) {
	tbl := New(100)
	for i := uint64(0); i < 100; i++ {
		if !tbl.Insert(i, uint32(i*3)) {
			t.Fatalf("insert %d stalled below capacity", i)
		}
	}
	if tbl.Len() != 100 {
		t.Fatalf("len = %d", tbl.Len())
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := tbl.Lookup(i)
		if !ok || v != uint32(i*3) {
			t.Fatalf("lookup %d = %d,%v", i, v, ok)
		}
	}
	if _, ok := tbl.Lookup(1000); ok {
		t.Fatal("phantom key")
	}
}

func TestInsertUpdatesValue(t *testing.T) {
	tbl := New(10)
	tbl.Insert(5, 1)
	tbl.Insert(5, 2)
	if v, _ := tbl.Lookup(5); v != 2 {
		t.Fatalf("update failed: %d", v)
	}
	if tbl.Len() != 1 {
		t.Fatalf("duplicate insert changed count: %d", tbl.Len())
	}
}

func TestDelete(t *testing.T) {
	tbl := New(50)
	for i := uint64(0); i < 50; i++ {
		tbl.Insert(i, uint32(i))
	}
	for i := uint64(0); i < 50; i += 2 {
		if !tbl.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tbl.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	for i := uint64(0); i < 50; i++ {
		_, ok := tbl.Lookup(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
	if tbl.Len() != 25 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

// TestFullCapacity verifies the paper's claim: with the table provisioned
// at twice the load (load factor 1/2) insertion always converges.
func TestFullCapacity(t *testing.T) {
	for _, capacity := range []int{16, 64, 1133, 4096} {
		tbl := New(capacity)
		r := rand.New(rand.NewSource(1))
		keys := make(map[uint64]uint32, capacity)
		for len(keys) < capacity {
			k := r.Uint64()
			if _, dup := keys[k]; dup {
				continue
			}
			v := uint32(len(keys))
			if !tbl.Insert(k, v) {
				t.Fatalf("capacity %d: stalled at %d entries", capacity, len(keys))
			}
			keys[k] = v
		}
		for k, v := range keys {
			got, ok := tbl.Lookup(k)
			if !ok || got != v {
				t.Fatalf("capacity %d: lost key %#x", capacity, k)
			}
		}
	}
}

// TestChurn mimics the descriptor pool's real access pattern: a sliding
// window of live keys with constant insert/delete churn at full capacity.
func TestChurn(t *testing.T) {
	const capacity = 1024
	tbl := New(capacity)
	next := uint64(1)
	var live []uint64
	for ; next <= capacity; next++ {
		if !tbl.Insert(next, uint32(next)) {
			t.Fatalf("fill stalled at %d", next)
		}
		live = append(live, next)
	}
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 20000; round++ {
		// Delete a random live key, insert a fresh one.
		i := r.Intn(len(live))
		if !tbl.Delete(live[i]) {
			t.Fatalf("churn: delete %d failed", live[i])
		}
		live[i] = next
		if !tbl.Insert(next, uint32(next)) {
			t.Fatalf("churn: insert %d stalled (stash=%d)", next, tbl.StashLen())
		}
		next++
	}
	if tbl.Len() != capacity {
		t.Fatalf("len = %d, want %d", tbl.Len(), capacity)
	}
	for _, k := range live {
		if v, ok := tbl.Lookup(k); !ok || v != uint32(k) {
			t.Fatalf("churn lost key %d", k)
		}
	}
	t.Logf("max stash depth over churn: %d", tbl.MaxStashDepth)
	if tbl.MaxStashDepth > StashSize {
		t.Fatalf("stash exceeded bound: %d", tbl.MaxStashDepth)
	}
}

// TestNoLostEntriesProperty: random interleavings of insert/delete always
// agree with a reference map.
func TestNoLostEntriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := New(256)
		ref := make(map[uint64]uint32)
		for op := 0; op < 1500; op++ {
			k := uint64(r.Intn(512)) // small key space forces collisions
			switch {
			case r.Intn(3) != 0 && len(ref) < 256:
				v := r.Uint32()
				if !tbl.Insert(k, v) {
					return false
				}
				ref[k] = v
			default:
				_, inRef := ref[k]
				if tbl.Delete(k) != inRef {
					return false
				}
				delete(ref, k)
			}
		}
		if tbl.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tbl.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOverCapacityStallsThenRecovers(t *testing.T) {
	tbl := New(32)
	// Push far past guaranteed capacity until a stall occurs.
	var inserted []uint64
	stalledAt := uint64(0)
	for k := uint64(0); k < 10000; k++ {
		if !tbl.Insert(k, uint32(k)) {
			stalledAt = k
			break
		}
		inserted = append(inserted, k)
	}
	if stalledAt == 0 {
		t.Skip("table absorbed 10000 entries; cannot exercise stall path")
	}
	// All previously inserted keys must still be intact.
	for _, k := range inserted {
		if v, ok := tbl.Lookup(k); !ok || v != uint32(k) {
			t.Fatalf("stall corrupted key %d", k)
		}
	}
	// Releasing entries lets the insert proceed, as in hardware.
	for i := 0; i < 8; i++ {
		tbl.Delete(inserted[i])
	}
	if !tbl.Insert(stalledAt, uint32(stalledAt)) {
		t.Fatal("insert still stalled after releases")
	}
}

func TestSlotsAccounting(t *testing.T) {
	tbl := New(1133) // the paper's N_txdesc
	if tbl.Capacity() < 1133 {
		t.Fatalf("capacity %d < 1133", tbl.Capacity())
	}
	// 2x provisioning: between 2x and 4x (power-of-two rounding) + stash.
	if tbl.Slots() < 2*1133 || tbl.Slots() > 4*1133+StashSize {
		t.Fatalf("slots = %d", tbl.Slots())
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl := New(4096)
	for i := uint64(0); i < 4096; i++ {
		tbl.Insert(i, uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(uint64(i) & 4095)
	}
}

func BenchmarkInsertDeleteChurn(b *testing.B) {
	tbl := New(4096)
	for i := uint64(0); i < 4096; i++ {
		tbl.Insert(i, uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		tbl.Delete(k & 4095)
		tbl.Insert(k&4095+4096, uint32(k))
		tbl.Delete(k&4095 + 4096)
		tbl.Insert(k&4095, uint32(k))
	}
}

// FuzzTableMatchesEager drives Table and the eager table it replaced
// (eager_oracle_test.go) through one sequence of inserts, lookups and
// deletes. Each op byte is a key from a 64-key space and an action, so a
// table of capacity 1 or 8 (8 or 20 slots) is pushed through evictions,
// stash drains and stalls. Every result, Len, StashLen and MaxStashDepth
// must agree with the eager table, and a map checks the contents.
func FuzzTableMatchesEager(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, capacity := range []uint8{1, 8, 8, 32} {
		ops := make([]byte, 600)
		r.Read(ops)
		f.Add(capacity, ops)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		got, want := New(int(capacity%64)), newEager(int(capacity%64))
		ref := make(map[uint64]uint32)
		for i, op := range ops {
			key := uint64(op >> 2)
			switch op & 3 {
			case 0, 1:
				g, w := got.Insert(key, uint32(i)), want.Insert(key, uint32(i))
				if g != w {
					t.Fatalf("op %d: Insert(%d) = %v, eager %v", i, key, g, w)
				}
				if g {
					ref[key] = uint32(i)
				}
			case 2:
				g, gok := got.Lookup(key)
				w, wok := want.Lookup(key)
				m, mok := ref[key]
				if g != w || gok != wok || g != m || gok != mok {
					t.Fatalf("op %d: Lookup(%d) = %d,%v, eager %d,%v, map %d,%v", i, key, g, gok, w, wok, m, mok)
				}
			case 3:
				g, w := got.Delete(key), want.Delete(key)
				if _, in := ref[key]; g != w || g != in {
					t.Fatalf("op %d: Delete(%d) = %v, eager %v, map %v", i, key, g, w, in)
				}
				delete(ref, key)
			}
			if got.Len() != want.Len() || got.Len() != len(ref) || got.StashLen() != want.StashLen() ||
				got.MaxStashDepth != want.MaxStashDepth {
				t.Fatalf("op %d: Len %d StashLen %d MaxStashDepth %d, eager %d %d %d, map %d", i,
					got.Len(), got.StashLen(), got.MaxStashDepth, want.Len(), want.StashLen(), want.MaxStashDepth, len(ref))
			}
		}
		for k, v := range ref {
			if g, ok := got.Lookup(k); !ok || g != v {
				t.Fatalf("key %d = %d,%v, want %d", k, g, ok, v)
			}
		}
	})
}
