package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestFIFOOrderAcrossDrainAndSlide(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := *q.Peek(0); got != want {
				t.Fatalf("Peek(0) = %d, want %d", got, want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	// Drain to empty repeatedly: the queue rewinds onto the same array.
	push(3)
	pop(3)
	c := cap(q.items)
	for i := 0; i < 100; i++ {
		push(3)
		pop(3)
	}
	if q.Len() != 0 || q.head != 0 || cap(q.items) != c {
		t.Fatalf("after drains: len %d head %d cap %d, want 0 0 %d", q.Len(), q.head, cap(q.items), c)
	}
	// Never drain: occupancy swings between 2 and 5 for a long time; the
	// live tail slides down instead of the array growing without bound.
	push(2)
	for i := 0; i < 1000; i++ {
		push(3)
		for j := 0; j < q.Len(); j++ {
			if got := *q.Peek(j); got != want+j {
				t.Fatalf("Peek(%d) = %d, want %d", j, got, want+j)
			}
		}
		pop(3)
	}
	if q.Len() != 2 || cap(q.items) > 16 {
		t.Fatalf("after 1000 undrained rounds: len %d cap %d, want 2 and a bounded array", q.Len(), cap(q.items))
	}
	q.Reset()
	if q.Len() != 0 || q.head != 0 {
		t.Fatalf("after Reset: len %d head %d", q.Len(), q.head)
	}
	want = next // Reset dropped two items unseen
	push(1)
	pop(1)
}

// TestFIFOReleasesReferences: a popped, slid-over or reset slot no longer
// holds its item, so a drained queue does not keep frames alive.
func TestFIFOReleasesReferences(t *testing.T) {
	var collected atomic.Int32 // finalizers run on their own goroutine
	frame := func() *[]byte {
		b := make([]byte, 1500)
		runtime.SetFinalizer(&b, func(*[]byte) { collected.Add(1) })
		return &b
	}
	var q FIFO[*[]byte]
	for i := 0; i < 4; i++ {
		q.Push(frame())
	}
	q.Pop()         // vacated slot zeroed
	q.Pop()         // now the dead prefix is half of a full array...
	q.Push(frame()) // ...so this slides the tail down and clears behind it
	q.Reset()       // and this drops the rest
	for _, p := range q.items[:cap(q.items)] {
		if p != nil {
			t.Fatal("backing array still references a frame after Reset")
		}
	}
	for i := 0; i < 10 && collected.Load() < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != 5 {
		t.Fatalf("%d of 5 frames collected while the queue is still alive", n)
	}
	runtime.KeepAlive(&q)
}

func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var q FIFO[[]byte]
	frame := make([]byte, 64)
	q.Push(frame) // a queue that never drains
	for i := 0; i < 64; i++ {
		q.Push(frame)
		q.Pop()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.Push(frame)
		q.Push(frame)
		q.Pop()
		q.Pop()
	}); avg != 0 {
		t.Fatalf("push/pop on a warm undrained queue: %.2f allocations, want 0", avg)
	}
	var d FIFO[[]byte]
	d.Push(frame)
	d.Pop()
	if avg := testing.AllocsPerRun(1000, func() {
		d.Push(frame)
		d.Pop()
	}); avg != 0 {
		t.Fatalf("push/pop on a draining queue: %.2f allocations, want 0", avg)
	}
}
