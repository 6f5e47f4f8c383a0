package sim

// BitRate is a transfer rate in bits per second.
type BitRate float64

// Common rates.
const (
	Kbps BitRate = 1e3
	Mbps BitRate = 1e6
	Gbps BitRate = 1e9
)

// Serialize returns the virtual time needed to put n bytes on a medium with
// rate r.
func (r BitRate) Serialize(n int) Duration {
	if r <= 0 {
		return 0
	}
	return Time(float64(n)*8/float64(r)*float64(Second) + 0.5)
}

// Resource models a single FIFO server (a link direction, a CPU core, an
// accelerator lane): work items occupy it back to back, each for its own
// service time. A Resource only reserves: Acquire books the server and
// returns the completion instant, and the caller schedules whatever runs
// then on the engine.
type Resource struct {
	eng       *Engine
	busyUntil Time

	// Busy accumulates total service time, for utilization accounting.
	Busy Duration
}

// NewResource returns an idle resource bound to eng.
func NewResource(eng *Engine) *Resource { return &Resource{eng: eng} }

// Acquire enqueues a work item with the given service time and returns its
// completion time. It schedules nothing.
func (r *Resource) Acquire(service Duration) Time {
	start := r.eng.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end := start + service
	r.busyUntil = end
	r.Busy += service
	return end
}

// BusyUntil reports the time at which the resource drains given no further
// arrivals.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Utilization returns the fraction of [0, now] the resource spent busy.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	if now == 0 {
		return 0
	}
	busy := r.Busy
	if r.busyUntil > now {
		busy -= r.busyUntil - now // in-flight service beyond now
	}
	return float64(busy) / float64(now)
}

// TokenBucket is a classic token-bucket rate limiter used to model NIC
// traffic shapers (paper §5.4, §8.2.3). Tokens are bytes.
type TokenBucket struct {
	eng    *Engine
	rate   BitRate // refill rate
	burst  float64 // bucket depth in bytes
	tokens float64
	last   Time
}

// NewTokenBucket returns a full bucket with the given rate and burst (bytes).
func NewTokenBucket(eng *Engine, rate BitRate, burst int) *TokenBucket {
	return &TokenBucket{eng: eng, rate: rate, burst: float64(burst), tokens: float64(burst)}
}

func (tb *TokenBucket) refill() {
	now := tb.eng.Now()
	if now > tb.last {
		tb.tokens += float64(tb.rate) / 8 * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
}

// Admit consumes n bytes of tokens if available and reports whether the
// packet conforms. Non-conforming packets are expected to be dropped or
// queued by the caller.
func (tb *TokenBucket) Admit(n int) bool {
	tb.refill()
	if tb.tokens >= float64(n) {
		tb.tokens -= float64(n)
		return true
	}
	return false
}

// Reserve unconditionally charges n bytes, allowing the balance to go
// negative, and returns how long the caller must wait before the bucket is
// non-negative again. This models a shaper that queues (rather than drops)
// non-conforming traffic, as NIC egress rate limiters do.
func (tb *TokenBucket) Reserve(n int) Duration {
	tb.refill()
	tb.tokens -= float64(n)
	if tb.tokens >= 0 {
		return 0
	}
	return Time(-tb.tokens * 8 / float64(tb.rate) * float64(Second))
}

// SetRate retunes the bucket live: the balance is settled at the old
// rate first, then refills continue at the new rate with the new depth.
// An over-full or over-drawn balance carries across the change, so a
// shaper mid-delay keeps its reservation honest.
func (tb *TokenBucket) SetRate(rate BitRate, burst int) {
	tb.refill()
	tb.rate = rate
	tb.burst = float64(burst)
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}
