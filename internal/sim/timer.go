package sim

// Timer is a reusable one-shot timer, so steady-state schedulers (ACK
// delay, retransmission timeouts, moderation) rearm one preallocated
// object instead of allocating a closure per event.
//
// Reset and Stop cancel lazily: every Reset queues a fresh entry, which
// fires the callback only if the timer is still armed with that entry's
// deadline; superseded entries fire as no-ops at their original expiry.
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

// timerExpire is a queued entry's callback: it fires the timer only if the
// entry is still current (armed, and its deadline not moved by a Reset).
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

// Stop disarms the timer and reports whether it was armed. The queued
// entry stays and fires as a no-op.
func (t *Timer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

// Armed reports whether the timer currently has a live deadline.
func (t *Timer) Armed() bool { return t.armed }
