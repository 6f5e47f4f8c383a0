package swdriver

import (
	"flexdriver/internal/nic"
	"flexdriver/internal/recovery"
	"flexdriver/internal/sim"
)

// Supervisor is the driver's recovery escalation ladder. Device- and
// node-level crashes need heavier hammers than a queue reset, and
// production drivers escalate through them in order:
//
//	rung 0  poll          notice Error-state queues, apply queue resets
//	rung 1  queue reset   force-flush/reset every ring (Error or not)
//	rung 2  device FLR    function-level reset of the NIC, re-ring
//	rung 3  full reattach tear down to a fresh attach and replay
//
// Each rung gets two attempts before the ladder climbs, paced by backoff
// from 500 ns to 4 µs; a 256-attempt backstop abandons an episode that
// can never heal (a NIC that stays down). The loop itself is a
// recovery.Ladder, the same one the FLD runtime and the tenancy
// reconciler run: event-armed, so an idle healthy driver contributes
// nothing to the engine and simulations quiesce.
//
// Drive it from a watchdog edge (a cluster Control sweep, an
// experiment's poll loop) by calling Kick; every recovery episode is
// measured detection-to-healthy into MTTR telemetry.
type Supervisor struct {
	*recovery.Ladder
	drv *Driver
}

// Ladder rungs, least to most disruptive.
const (
	RungPoll = iota
	RungQueueReset
	RungFLR
	RungReattach
)

var supervisorParams = recovery.Params{
	Rungs: []string{"poll", "queue_reset", "flr", "reattach"},
	Base:  500 * sim.Nanosecond, Max: 4 * sim.Microsecond,
}

// NewSupervisor builds the ladder for a driver. The seed feeds the
// backoff-jitter stream only — it is independent of the driver's CPU
// jitter stream so supervision never perturbs workload timing draws.
func NewSupervisor(d *Driver, seed int64) *Supervisor {
	s := &Supervisor{drv: d}
	s.Ladder = recovery.New(d.eng, sim.NewRand(seed), supervisorParams, s.Healthy, s.apply)
	return s
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
		if tx, rx := q.rings(); tx.sq.State() != nic.QueueReady || rx.rq.State() != nic.QueueReady {
			return false
		}
	}
	return true
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
			_, rx := q.rings()
			rx.doorbell(rx.PI)
		}
	}
}
