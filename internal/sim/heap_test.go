package sim

import "testing"

// nopArg is a no-op arg-form callback for heap bookkeeping tests.
func nopArg(any) {}

// TestHeapPopClearsVacatedSlot pins the fix for the popped-event leak:
// Pop must zero the vacated tail slot so the backing array does not keep
// the dispatched callback (and everything its closure or arg references)
// reachable until the slot is overwritten by a later push.
func TestHeapPopClearsVacatedSlot(t *testing.T) {
	var q Heap[call]
	for i := 0; i < 8; i++ {
		q.Push(Time(i), uint64(i), call{nopArg, &struct{}{}})
	}
	for q.Len() > 0 {
		q.Pop()
		vacated := q.h[:cap(q.h)][q.Len()]
		if vacated.V.Fn != nil || vacated.V.Arg != nil {
			t.Fatalf("slot %d still holds afn/arg (%v) after pop",
				q.Len(), vacated.V.Arg)
		}
	}
}

// TestQueuePopClearsNode is TestHeapPopClearsVacatedSlot for the near
// tier: a popped node goes onto the slab's free list holding no callback
// or argument, so the slab keeps nothing a dispatched event referenced.
func TestQueuePopClearsNode(t *testing.T) {
	var q queue
	for i := 0; i < 2*wheelFrom; i++ {
		q.push(0, Time(i), uint64(i), call{nopArg, &struct{}{}})
	}
	if q.near == 0 {
		t.Fatalf("no event reached the near tier")
	}
	for q.near > 0 {
		q.popThrough(0, maxTime)
	}
	for i, n := range q.slab {
		if n.V.Fn != nil || n.V.Arg != nil {
			t.Fatalf("slab node %d still holds afn/arg (%v) after pop", i, n.V.Arg)
		}
	}
}

// TestHeapShrinkQuarterFull pins the shrink policy: once a drained heap
// falls to a quarter of its backing capacity, Pop reallocates at half
// capacity, and it never bothers below shrinkCapMin. A burst therefore
// cannot pin its high-water footprint for the rest of a run.
func TestHeapShrinkQuarterFull(t *testing.T) {
	var q Heap[call]
	const n = 1 << 12
	// Deterministic scramble (LCG) so the drain exercises real sift-downs
	// across the shrink reallocations, not just an already-sorted array.
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		q.Push(Time(x%100_000), uint64(i), call{nopArg, nil})
	}
	grown := cap(q.h)
	if grown < n {
		t.Fatalf("cap after %d pushes = %d, want >= %d", n, grown, n)
	}

	shrunk := false
	prev := Time(-1)
	prevCap := grown
	for q.Len() > 0 {
		ev := q.Pop()
		if ev.At < prev {
			t.Fatalf("pop order broken across shrink: %v after %v", ev.At, prev)
		}
		prev = ev.At
		if c := cap(q.h); c < prevCap {
			shrunk = true
			if c != prevCap/2 {
				t.Fatalf("shrink went %d -> %d, want halving to %d", prevCap, c, prevCap/2)
			}
			if q.Len() > prevCap/4 {
				t.Fatalf("shrank at len %d with cap %d, policy is <= cap/4", q.Len(), prevCap)
			}
			prevCap = c
		}
	}
	if !shrunk {
		t.Fatalf("heap drained from cap %d without ever shrinking", grown)
	}
	if c := cap(q.h); c >= 2*shrinkCapMin {
		t.Fatalf("final cap %d, want < %d (shrink runs until cap drops below %d)",
			c, 2*shrinkCapMin, shrinkCapMin)
	}
}

// heapRef is one entry of FuzzHeapOrder's reference queue.
type heapRef struct {
	at  Time
	seq uint64
	id  int
}

// FuzzHeapOrder checks Heap against a brute-force reference. Each byte of
// the program is one operation: a push under the next local seq, a push
// under a conduit-style arrival seq, or a pop. Times are an
// offset from the last popped time drawn from a four-value alphabet, so
// equal times — and so the seq tie-break between and within both seq
// classes — are the common case. Every pop must return the reference's
// (time, seq) minimum, and the heap must drain to exactly the reference.
func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 2, 6, 10, 14, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{2, 0, 18, 1, 34, 5, 50, 3, 0, 2, 3, 3, 9, 66, 3})
	long := make([]byte, 0, 400)
	for i := 0; i < 300; i++ {
		long = append(long, byte(i*37)&^3|byte(i%3))
	}
	for i := 0; i < 100; i++ {
		long = append(long, 3, byte(i*11)&^3)
	}
	f.Add(long)
	alphabet := [4]Time{0, 1, 7, 50}
	f.Fuzz(func(t *testing.T, prog []byte) {
		var q Heap[int]
		var ref []heapRef
		var sent [4]uint64 // per-conduit send index
		local := uint64(0)
		base := Time(0)
		pop := func() {
			m := 0
			for i := range ref {
				if ref[i].at < ref[m].at || (ref[i].at == ref[m].at && ref[i].seq < ref[m].seq) {
					m = i
				}
			}
			want := ref[m]
			ref = append(ref[:m], ref[m+1:]...)
			ev := q.Pop()
			if ev.At != want.at || ev.Seq != want.seq || ev.V != want.id {
				t.Fatalf("pop = (%v, %#x, %v), want (%v, %#x, %v)", ev.At, ev.Seq, ev.V, want.at, want.seq, want.id)
			}
			base = ev.At
		}
		for i, b := range prog {
			switch b & 3 {
			case 0, 1:
				at := base + alphabet[b>>2&3]
				local++
				q.Push(at, localSeq|local, i)
				ref = append(ref, heapRef{at, localSeq | local, i})
			case 2:
				c := uint64(b >> 2 & 3)
				at := base + alphabet[b>>4&3]
				seq := c<<arrivalIndexBits | sent[c]
				sent[c]++
				q.Push(at, seq, i)
				ref = append(ref, heapRef{at, seq, i})
			case 3:
				if len(ref) > 0 {
					pop()
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("op %d: %d pending, reference holds %d", i, q.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if q.Len() != 0 {
			t.Fatalf("%d entries left after the reference drained", q.Len())
		}
	})
}

// The event queue's geometry as FuzzEventQueueOrder's time alphabet sees
// it: buckets of qSpan picoseconds, qHorizon of them ahead of the clock.
const (
	qSpan    = Time(2048)
	qHorizon = 512 * qSpan
)

// queueAt draws an absolute time from FuzzEventQueueOrder's alphabet,
// relative to the clock: the clock itself, its own bucket, the next one,
// the last bucket inside the horizon, the first one past it, and beyond.
func queueAt(now Time, k byte) Time {
	b := now &^ (qSpan - 1) // start of the clock's bucket
	switch k & 7 {
	case 0:
		return now
	case 1:
		return now + 1
	case 2:
		return b + qSpan - 1
	case 3:
		return b + qSpan + now%7
	case 4:
		return b + qHorizon - 1
	case 5:
		return b + qHorizon
	case 6:
		return now + qHorizon + 3*qSpan
	}
	return now + 40*qHorizon
}

// queueAdvance is the alphabet of clock advances: up to two and a half
// horizons, so a few of them wrap the near future more than once.
var queueAdvance = [8]Time{0, 1, qSpan, qHorizon/2 + 5, qHorizon - 1, qHorizon, qHorizon + qSpan, 5*qHorizon/2 + 777}

// FuzzEventQueueOrder checks the engine's event queue, through the
// engine, against a brute-force (at, seq) reference. Each byte of the
// program is one operation: a local push, a conduit-style insert under
// an arrival seq, a bounded runThrough, or a RunUntil that moves the clock
// (by up to two and a half horizons). Times come from queueAt's alphabet;
// an event whose id is a multiple of four schedules one more event from
// its callback. Every dispatch must be the reference's minimum at the
// reference's time, a bounded run must leave nothing due within its bound,
// and Pending must count the reference.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 5, 9, 2, 6, 10})
	f.Add([]byte{20, 16, 0, 28, 0, 13, 14, 3, 7, 11, 15, 19, 23, 27, 31})
	f.Add([]byte{24, 20, 16, 4, 0, 31, 20, 16, 4, 0, 31, 20, 16, 0, 27, 2, 2, 2, 3, 31, 31})
	long := make([]byte, 0, 600)
	for i := 0; i < 600; i++ {
		long = append(long, byte(i*53)^byte(i>>3))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, prog []byte) {
		e := NewEngine()
		var ref []heapRef
		var sent [2]uint64 // per-conduit send index
		spawns := 0
		var fire func(any)
		fire = func(a any) {
			id := a.(int)
			m := 0
			for i := range ref {
				if ref[i].at < ref[m].at || (ref[i].at == ref[m].at && ref[i].seq < ref[m].seq) {
					m = i
				}
			}
			if len(ref) == 0 {
				t.Fatalf("dispatched %d at %v, the reference is empty", id, e.Now())
			}
			if ref[m].id != id || ref[m].at != e.Now() {
				t.Fatalf("dispatched %d at %v, want %d at %v", id, e.Now(), ref[m].id, ref[m].at)
			}
			ref = append(ref[:m], ref[m+1:]...)
			if id%4 == 0 && spawns < len(prog) {
				spawns++
				at := queueAt(e.Now(), byte(id>>2))
				e.push(at, fire, len(prog)+spawns)
				ref = append(ref, heapRef{at, localSeq | e.seq, len(prog) + spawns})
			}
		}
		dueBy := func(last Time) {
			for _, r := range ref {
				if r.at <= last {
					t.Fatalf("%v left pending after a run through %v", r, last)
				}
			}
		}
		for i, b := range prog {
			now := e.Now()
			switch b & 3 {
			case 0:
				at := queueAt(now, b>>2)
				e.push(at, fire, i)
				ref = append(ref, heapRef{at, localSeq | e.seq, i})
			case 1:
				c := uint64(b >> 2 & 1)
				at := queueAt(now, b>>3)
				seq := c<<arrivalIndexBits | sent[c]
				sent[c]++
				e.insert(at, seq, fire, i)
				ref = append(ref, heapRef{at, seq, i})
			case 2:
				last := queueAt(now, b>>2)
				e.runThrough(last)
				dueBy(last)
			case 3:
				d := now + queueAdvance[b>>2&7]
				e.RunUntil(d)
				dueBy(d)
				if e.Now() != d {
					t.Fatalf("clock %v after RunUntil(%v)", e.Now(), d)
				}
			}
			if e.Pending() != len(ref) {
				t.Fatalf("op %d: %d pending, reference holds %d", i, e.Pending(), len(ref))
			}
		}
		e.Run()
		if len(ref) != 0 || e.Pending() != 0 {
			t.Fatalf("%d pending and %d in the reference after Run", e.Pending(), len(ref))
		}
	})
}
