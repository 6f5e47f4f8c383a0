package main

import "time"

// The reference box is a shared VM whose speed drifts by up to 2× over
// minutes (same binary, same inputs, identical allocation counts, all of
// it user time — neighbours on the memory system, not steal). Neither
// wall nor CPU seconds repeat there. What does repeat is the ratio of a
// measured section to a fixed piece of work run beside it at fine grain.
// So every host time the benchmark reports is in reference seconds:
// measured seconds ÷ how much slower than refStepS the reference kernel
// ran right then.
//
// The kernel is the benchmark's own code — no simulator package, so a
// simulator change cannot move it — with the simulator's instruction
// mix: a 4096-deep binary heap of timestamped records, popped and
// re-pushed at pseudo-random times, and one cache line written at a
// pseudo-random place in a 4 MB arena, twice the core's L2, so half the
// writes go out to the shared cache as the simulator's heap traffic
// does. Of the arena sizes and line counts tried (1–32 MB, 64 and
// 256 B) this one followed the workloads' own slowdown most closely:
// over a stretch where run sections spread 15–19 %, the log-log slope
// of run time against kernel time was 0.94–1.11 on echo64_pair,
// cluster16_switch and kvserve100k (1.39 on zuc4k_rdma, whose cipher
// and memmove the kernel resembles least) with 1.7–3.4 % left over.
// Its state is a package-level array, not heap: it adds nothing to
// Mallocs, TotalAlloc or HeapAlloc and gives the collector nothing to
// scan (and 4 MB to every peak_rss_mb).

const (
	refDepth = 4096
	refLine  = 64      // bytes written per step
	refArena = 4 << 20 // bytes

	// refStepS is one kernel step on the reference box with nothing
	// contending; it fixes the unit, so a reference second is a wall
	// second of that box at its best.
	refStepS = 100e-9

	// refRepSteps is the kernel work interleaved with one full-scale
	// rep's run section, about 0.8 s at reference speed, whatever the
	// workload: it is what the run section's speed is read from.
	refRepSteps = 8_000_000
)

type refEvent struct {
	at  uint64
	seq uint32
}

var ref struct {
	heap  [refDepth]refEvent
	arena [refArena]byte
	src   [refLine]byte
	x     uint64
	sum   uint64 // keeps the work observable
}

func refNext() uint64 {
	ref.x ^= ref.x << 13
	ref.x ^= ref.x >> 7
	ref.x ^= ref.x << 17
	return ref.x
}

// refRun executes steps of the kernel and returns how long they took.
func refRun(steps int) time.Duration {
	start := time.Now()
	h := &ref.heap
	if ref.x == 0 {
		ref.x = 0x9e3779b97f4a7c15
		for i := range h {
			h[i].at = uint64(i) << 8 // sorted, so already a heap
		}
	}
	for ; steps > 0; steps-- {
		// Replace the root with the same record at a later time and sift
		// it down: one pop and one push.
		e := h[0]
		rnd := refNext()
		line := ref.arena[rnd%(refArena/refLine)*refLine:][:refLine]
		copy(line, ref.src[:])
		ref.src[e.seq%refLine] = byte(e.at)
		ref.sum += uint64(line[e.seq%refLine])
		e.seq++
		e.at += 1 + rnd>>44
		i := 0
		for {
			l, r, m := 2*i+1, 2*i+2, i
			at := e.at
			if l < refDepth && h[l].at < at {
				m, at = l, h[l].at
			}
			if r < refDepth && h[r].at < at {
				m = r
			}
			if m == i {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return time.Since(start)
}

// refClock accumulates the kernel work done beside one measured section.
type refClock struct {
	steps int64
	d     time.Duration
}

func (c *refClock) tick(steps int) {
	if steps < 1 {
		steps = 1
	}
	c.d += refRun(steps)
	c.steps += int64(steps)
}

// slowdown is how much slower than the reference the box ran the kernel
// (1 = reference speed); 1 when no kernel work was done.
func (c *refClock) slowdown() float64 {
	if c.steps == 0 || c.d <= 0 {
		return 1
	}
	return c.d.Seconds() / (float64(c.steps) * refStepS)
}

// refAdjust converts a duration that just ended to reference seconds by
// running the kernel for about as long (between 1 and 50 ms).
func refAdjust(d time.Duration) float64 {
	steps := int(d.Seconds() / refStepS)
	if steps < 10_000 {
		steps = 10_000
	}
	if steps > 500_000 {
		steps = 500_000
	}
	var c refClock
	c.tick(steps)
	return d.Seconds() / c.slowdown()
}
