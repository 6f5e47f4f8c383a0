// Package recovery is the simulator's one recovery loop. The host
// driver's supervisor, the FLD runtime and the tenancy reconciler each
// own a Ladder and differ only in what they pass it: a health predicate,
// the rungs' action and the pacing.
//
// A ladder is event-armed, not timer-driven. Kick is the watchdog edge:
// if the subject is unhealthy and no episode is open, it opens one and
// schedules the first attempt. Each attempt closes the episode if the
// subject has healed, otherwise runs the current rung, climbs to the next
// rung once this one's attempts are spent, and re-arms after a seeded,
// jittered exponential backoff. An episode that never heals is abandoned
// after maxAttempts, so a ladder can never keep the engine from
// quiescing; a healthy subject costs one predicate call per kick and
// schedules nothing. Everything runs on the owner's engine and draws
// jitter from the owner's own stream, so recovery schedules replay
// byte-identically.
package recovery

import (
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Params shape one ladder.
type Params struct {
	// Rungs names the rungs, least to most disruptive; the action
	// receives the index of the rung it is to run.
	Rungs []string
	// Delay postpones the first attempt after the kick that opens an
	// episode (the owner's detection-to-action latency).
	Delay sim.Duration
	// Base and Max bound the backoff between attempts: Base doubled per
	// attempt, capped at Max, jittered ±25 %.
	Base, Max sim.Duration
}

// Each rung gets rungAttempts attempts before the ladder climbs to the
// next; the last keeps the episode until it heals or, after maxAttempts
// in all, is abandoned (a device that never comes back).
const (
	rungAttempts = 2
	maxAttempts  = 256
)

// Ladder is one owner's recovery loop.
type Ladder struct {
	eng     *sim.Engine
	rng     *sim.Rand
	p       Params
	healthy func() bool
	act     func(rung int)

	active   bool
	openedAt sim.Time
	rung     int
	tries    int
	attempts int

	// Telemetry (nil-safe).
	tDetects    *telemetry.Counter
	tEpisodes   *telemetry.Counter
	tAbandoned  *telemetry.Counter
	tRungs      []*telemetry.Counter
	hMTTR       *telemetry.Histogram
	hTimeToRung *telemetry.Histogram
	gMTTRMax    *telemetry.Gauge
}

// New builds a ladder on eng. rng feeds the backoff jitter only; healthy
// reports whether the subject needs no recovery; act runs one attempt of
// the given rung.
func New(eng *sim.Engine, rng *sim.Rand, p Params, healthy func() bool, act func(rung int)) *Ladder {
	return &Ladder{eng: eng, rng: rng, p: p, healthy: healthy, act: act}
}

// SetTelemetry attaches episode instrumentation under sc: detections,
// closed and abandoned episodes, entries into each rung, time to reach a
// rung, and MTTR (detection to healthy) as a histogram and a high-water
// gauge.
func (l *Ladder) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	l.tDetects = sc.Counter("detects")
	l.tEpisodes = sc.Counter("episodes")
	l.tAbandoned = sc.Counter("abandoned")
	l.tRungs = make([]*telemetry.Counter, len(l.p.Rungs))
	for i, name := range l.p.Rungs {
		l.tRungs[i] = sc.Counter("rung/" + name)
	}
	l.hMTTR = sc.Histogram("mttr")
	l.hTimeToRung = sc.Histogram("time_to_rung")
	l.gMTTRMax = sc.Gauge("mttr_max")
}

// Active reports whether a recovery episode is open.
func (l *Ladder) Active() bool { return l.active }

// Kick is the watchdog edge: if the subject is unhealthy and no episode
// is open, open one (recording the detection time) and start climbing.
func (l *Ladder) Kick() {
	if l.active || l.healthy() {
		return
	}
	l.active = true
	l.openedAt = l.eng.Now()
	l.rung, l.tries, l.attempts = 0, 0, 0
	l.tDetects.Inc()
	l.enter(0)
	l.arm(l.p.Delay)
}

// arm schedules the next attempt d from now.
func (l *Ladder) arm(d sim.Duration) { l.eng.AfterArg(d, runAttempt, l) }

// runAttempt is arm's trampoline.
func runAttempt(l any) { l.(*Ladder).attempt() }

// enter counts an entry into rung r.
func (l *Ladder) enter(r int) {
	if l.tRungs != nil {
		l.tRungs[r].Inc()
	}
}

// attempt runs one rung action, then either closes the episode
// (healthy), escalates, or re-arms after backoff.
func (l *Ladder) attempt() {
	if !l.active {
		return
	}
	if l.healthy() {
		l.finish(false)
		return
	}
	l.attempts++
	if l.attempts > maxAttempts {
		l.finish(true)
		return
	}
	l.act(l.rung)
	l.tries++
	if l.tries >= rungAttempts && l.rung < len(l.p.Rungs)-1 {
		l.rung++
		l.tries = 0
		l.enter(l.rung)
		l.hTimeToRung.Observe(int64(l.eng.Now() - l.openedAt))
	}
	l.arm(l.rng.Backoff(l.p.Base, l.p.Max, l.attempts))
}

// finish closes the episode, recording MTTR unless it was abandoned.
func (l *Ladder) finish(gaveUp bool) {
	l.active = false
	if gaveUp {
		l.tAbandoned.Inc()
		return
	}
	mttr := int64(l.eng.Now() - l.openedAt)
	l.tEpisodes.Inc()
	l.hMTTR.Observe(mttr)
	l.gMTTRMax.Set(mttr)
}
