package sim

// Timer is a reusable one-shot timer. It exists so steady-state schedulers
// (doorbell coalescing, ACK delay, retransmission timeouts, CQ moderation)
// can rearm the same preallocated object millions of times without
// allocating a closure per event.
//
// Reset and Stop use lazy cancellation: every Reset pushes a fresh heap
// entry, and an entry fires the callback only if the timer is still armed
// with that entry's deadline. Superseded entries fire as no-ops when their
// original expiry comes up. This keeps Reset O(log n) and allocation-free
// at the cost of stale entries occupying the queue — exactly the cost the
// closure-per-arm pattern it replaces paid, minus the allocations.
//
// If Reset is called twice with the same resulting deadline, the callback
// runs at the earlier entry's queue position (it fires exactly once either
// way). A Timer is single-threaded like its Engine, and the callback runs
// with the timer already disarmed, so it may Reset the timer again.
type Timer struct {
	eng   *Engine
	fn    func(any)
	arg   any
	when  Time
	armed bool
}

// NewTimer returns an unarmed timer that calls fn(arg) when it expires.
func (e *Engine) NewTimer(fn func(any), arg any) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{eng: e, fn: fn, arg: arg}
}

// timerExpire is the heap entry's callback: it fires the timer only if the
// entry is still current (armed, and the deadline was not moved by a later
// Reset or cleared by Stop).
func timerExpire(a any) {
	t := a.(*Timer)
	if !t.armed || t.when != t.eng.now {
		return
	}
	t.armed = false
	t.fn(t.arg)
}

// Reset (re)arms the timer to expire d from now, superseding any earlier
// deadline.
func (t *Timer) Reset(d Duration) {
	t.armed = true
	t.when = t.eng.now + d
	t.eng.push(t.when, timerExpire, t)
}

// Stop disarms the timer and reports whether it was armed. Stopping never
// removes the pending heap entry; it fires as a no-op.
func (t *Timer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

// Armed reports whether the timer currently has a live deadline.
func (t *Timer) Armed() bool { return t.armed }
