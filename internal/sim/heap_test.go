package sim

import "testing"

// nopArg is a no-op arg-form callback for heap bookkeeping tests.
func nopArg(any) {}

// popEntry pops the engine's earliest event as (time, seq, arg).
func popEntry(e *Engine) (Time, uint64, any) {
	ev := e.events.Pop()
	return ev.At, ev.Seq, ev.V.Arg
}

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

// FuzzHeapOrder checks the engine's event heap against a brute-force
// reference. Each byte of the program is one operation: a local push, a
// conduit-style arrival inserted under its own seq, or a pop. Times are an
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
		e := NewEngine()
		var ref []heapRef
		var sent [4]uint64 // per-conduit send index
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
			at, seq, arg := popEntry(e)
			if at != want.at || seq != want.seq || arg.(int) != want.id {
				t.Fatalf("pop = (%v, %#x, %v), want (%v, %#x, %v)", at, seq, arg, want.at, want.seq, want.id)
			}
			base = at
		}
		for i, b := range prog {
			switch b & 3 {
			case 0, 1:
				at := base + alphabet[b>>2&3]
				e.push(at, nopArg, i)
				ref = append(ref, heapRef{at, localSeq | e.seq, i})
			case 2:
				c := uint64(b >> 2 & 3)
				at := base + alphabet[b>>4&3]
				seq := c<<arrivalIndexBits | sent[c]
				sent[c]++
				e.insert(at, seq, nopArg, i)
				ref = append(ref, heapRef{at, seq, i})
			case 3:
				if len(ref) > 0 {
					pop()
				}
			}
			if e.Pending() != len(ref) {
				t.Fatalf("op %d: %d pending, reference holds %d", i, e.Pending(), len(ref))
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events left after the reference drained", e.Pending())
		}
	})
}
