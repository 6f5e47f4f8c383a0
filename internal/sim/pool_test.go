package sim

import "testing"

// rec is a pooled record shaped like the model's: a link, a field bound
// once by New, and per-use state.
type rec struct {
	Link[rec]
	id    int
	bound func() int
	use   int
}

// TestPoolReuseIsLIFO: the record returned last is the one handed out next.
func TestPoolReuseIsLIFO(t *testing.T) {
	var p Pool[rec, *rec]
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for i, want := range []*rec{c, b, a} {
		if got := p.Get(); got != want {
			t.Fatalf("Get %d returned %p, want %p (last in, first out)", i, got, want)
		}
	}
}

// TestPoolNewOncePerMiss: an empty pool calls New exactly once per Get, a
// warm one never, and what New bound survives Put and Get; a nil New
// yields a zero record.
func TestPoolNewOncePerMiss(t *testing.T) {
	made := 0
	p := Pool[rec, *rec]{New: func() *rec {
		made++
		x := &rec{id: made}
		x.bound = func() int { return x.id }
		return x
	}}
	x, y := p.Get(), p.Get()
	if made != 2 || x.id != 1 || y.id != 2 {
		t.Fatalf("two misses: New ran %d times, ids %d and %d; want 2 runs, ids 1 and 2", made, x.id, y.id)
	}
	x.use = 7
	p.Put(x)
	if z := p.Get(); made != 2 || z != x || z.bound() != 1 || z.use != 7 {
		t.Fatalf("a hit ran New (%d runs) or lost the record's fields: bound()=%d use=%d", made, z.bound(), z.use)
	}
	var q Pool[rec, *rec]
	if z := q.Get(); z == nil || z.id != 0 || z.bound != nil {
		t.Fatalf("nil New: got %+v, want a zero record", z)
	}
}

// TestPoolWarmCycleZeroAlloc: a Get/Put cycle on a warm pool allocates
// nothing.
func TestPoolWarmCycleZeroAlloc(t *testing.T) {
	var p Pool[rec, *rec]
	p.Put(p.Get())
	if avg := testing.AllocsPerRun(1000, func() { p.Put(p.Get()) }); avg != 0 {
		t.Fatalf("warm Get/Put: %.2f allocations, want 0", avg)
	}
}
