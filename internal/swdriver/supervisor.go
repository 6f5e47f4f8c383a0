package swdriver

import (
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Supervisor is the driver's recovery escalation ladder. The old model
// — experiments sprinkling Poll() watchdogs — treated every failure as
// a queue-level blip; device- and node-level crashes need heavier
// hammers, and production drivers escalate through them in order:
//
//	rung 0  poll          notice Error-state queues, apply queue resets
//	rung 1  queue reset   force-flush/reset every ring (Error or not)
//	rung 2  QP reconnect  a pause only: reconnection takes both ends of
//	                      the connection, so the watchdog Control that
//	                      sees both owns it (the slot keeps its budget in
//	                      every episode's backoff schedule)
//	rung 3  device FLR    function-level reset of the NIC, re-ring
//	rung 4  full reattach tear down to a fresh attach and replay
//
// Each rung gets a bounded retry budget; exhausted budgets escalate.
// Retry pacing is seeded exponential backoff with jitter from the
// supervisor's own deterministic stream, so recovery schedules replay
// byte-identically (everything runs on the driver's shard). The
// supervisor is event-armed, not timer-driven: it schedules work only
// while an episode is open, so an idle healthy driver contributes
// nothing to the engine and simulations quiesce.
//
// Drive it from a watchdog edge (a cluster Control sweep, an
// experiment's poll loop) by calling Kick; every recovery episode is
// measured detection-to-healthy into MTTR telemetry.
type Supervisor struct {
	drv *Driver
	eng *sim.Engine
	rng *sim.Rand

	active     bool
	detectedAt sim.Time
	rung       int
	tries      int
	attempts   int

	// Telemetry (nil-safe).
	tDetects    *telemetry.Counter
	tEpisodes   *telemetry.Counter
	tAbandoned  *telemetry.Counter
	tRungs      [numRungs]*telemetry.Counter
	hMTTR       *telemetry.Histogram
	hTimeToRung *telemetry.Histogram
	gMTTRMax    *telemetry.Gauge
}

// Ladder rungs, least to most disruptive.
const (
	RungPoll = iota
	RungQueueReset
	RungReconnect
	RungFLR
	RungReattach
	numRungs
)

var rungNames = [numRungs]string{"poll", "queue_reset", "reconnect", "flr", "reattach"}

const (
	// rungBudget attempts per rung before escalating.
	rungBudget = 2
	// Exponential backoff between attempts, jittered ±25%.
	backoffBase = 500 * sim.Nanosecond
	backoffMax  = 4 * sim.Microsecond
	// maxAttempts bounds an episode that can never heal (e.g. a NIC that
	// stays down): the supervisor gives up
	// rather than keep the engine from quiescing forever.
	maxAttempts = 256
)

// NewSupervisor builds the ladder for a driver. The seed feeds the
// backoff-jitter stream only — it is independent of the driver's CPU
// jitter stream so supervision never perturbs workload timing draws.
func NewSupervisor(d *Driver, seed int64) *Supervisor {
	return &Supervisor{drv: d, eng: d.eng, rng: sim.NewRand(seed)}
}

// SetTelemetry attaches MTTR and per-rung instrumentation, typically
// under the driver's scope as "supervisor".
func (s *Supervisor) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	s.tDetects = sc.Counter("detects")
	s.tEpisodes = sc.Counter("episodes")
	s.tAbandoned = sc.Counter("abandoned")
	for r := 0; r < numRungs; r++ {
		s.tRungs[r] = sc.Counter("rung/" + rungNames[r])
	}
	s.hMTTR = sc.Histogram("mttr")
	s.hTimeToRung = sc.Histogram("time_to_rung")
	s.gMTTRMax = sc.Gauge("mttr_max")
}

// Healthy reports whether every ring the driver owns is operational and
// the process itself is running. QP connection state is not included:
// QP repair belongs to whoever owns both ends.
func (s *Supervisor) Healthy() bool {
	d := s.drv
	if d.downN > 0 || d.nic.Down() {
		return false
	}
	for _, q := range d.queues {
		if sq, rq := q.rings(); sq.State() != nic.QueueReady || rq.State() != nic.QueueReady {
			return false
		}
	}
	return true
}

// Active reports whether a recovery episode is open.
func (s *Supervisor) Active() bool { return s.active }

// Kick is the watchdog edge: if the driver is unhealthy and no episode
// is open, open one (recording the detection time) and start climbing.
// Cheap when healthy — call it from every watchdog sweep.
func (s *Supervisor) Kick() {
	if s.active || s.Healthy() {
		return
	}
	s.active = true
	s.detectedAt = s.eng.Now()
	s.rung, s.tries, s.attempts = 0, 0, 0
	s.tDetects.Inc()
	s.tRungs[0].Inc()
	s.eng.After(0, s.attempt)
}

// attempt runs one rung action, then either closes the episode
// (healthy), escalates, or re-arms after backoff.
func (s *Supervisor) attempt() {
	if !s.active {
		return
	}
	if s.Healthy() {
		s.finish(false)
		return
	}
	s.attempts++
	if s.attempts > maxAttempts {
		s.finish(true)
		return
	}
	s.apply(s.rung)
	s.tries++
	if s.tries >= rungBudget && s.rung < RungReattach {
		s.rung++
		s.tries = 0
		s.tRungs[s.rung].Inc()
		s.hTimeToRung.Observe(int64(s.eng.Now() - s.detectedAt))
	}
	s.eng.After(s.rng.Backoff(backoffBase, backoffMax, s.attempts), s.attempt)
}

// apply executes one rung of the ladder.
func (s *Supervisor) apply(rung int) {
	if rung == RungFLR {
		s.drv.nic.FLR()
	}
	for _, q := range s.drv.queues {
		switch rung {
		case RungPoll:
			q.Poll()
		case RungQueueReset, RungReattach:
			q.reattach()
		case RungFLR:
			q.ringRQDoorbell()
		}
	}
}

// finish closes the episode, recording MTTR (detection to healthy).
func (s *Supervisor) finish(gaveUp bool) {
	s.active = false
	if gaveUp {
		s.tAbandoned.Inc()
		return
	}
	mttr := int64(s.eng.Now() - s.detectedAt)
	s.tEpisodes.Inc()
	s.hMTTR.Observe(mttr)
	s.gMTTRMax.Set(mttr)
}
