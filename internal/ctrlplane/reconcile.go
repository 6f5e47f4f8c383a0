package ctrlplane

import (
	"fmt"
	"sort"

	"flexdriver/internal/recovery"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Actuator is the node-side machinery the reconciler drives. All calls
// run on the node's engine (the reconciler never crosses nodes).
//
// Drain must be idempotent and report whether the tenant has quiesced:
// the reconciler keeps calling it (with backoff) until it returns true,
// then reconfigures, then undrains. A tenant unknown to the node drains
// trivially (true).
type Actuator interface {
	// Observed reports the tenants the node is actually running: each
	// the spec entry the node last actuated for it.
	Observed() map[string]Tenant
	// Drain stops feeding the tenant new work and reports whether all
	// of its in-flight work has quiesced.
	Drain(name string) bool
	// Reconfigure creates the tenant or reshapes it to the desired
	// state. Called only while the tenant is drained (or new).
	Reconfigure(name string, t Tenant) error
	// Undrain resumes the tenant after a successful reconfigure.
	Undrain(name string)
	// Remove tears the tenant down. Called only while drained.
	Remove(name string) error
}

// reconcileParams pace the reconciler's one rung: attempts back off from
// 1 µs to 16 µs, and an episode that can never converge (an actuator
// that always errors, a drain that never completes) is abandoned after
// 256 — a counted, alarmable event.
var reconcileParams = recovery.Params{
	Rungs: []string{"converge"},
	Base:  1 * sim.Microsecond, Max: 16 * sim.Microsecond,
}

// Reconciler converges one node onto a desired-state Spec. Its loop is a
// recovery.Ladder, the same one the host supervisor and the FLD runtime
// run, with convergence as the health predicate and one rung, a
// convergence pass: Apply (or a watchdog Kick) opens an episode,
// attempts run on seeded jittered backoff, and an idle converged
// reconciler schedules nothing. An abandoned episode leaves its drains
// open; the next Apply or Kick resumes them.
type Reconciler struct {
	*recovery.Ladder
	eng *sim.Engine
	act Actuator

	desired  Spec
	haveSpec bool

	// draining tracks per-tenant drain episodes: present while the
	// reconciler is draining the tenant, recording when it started so
	// drain time lands in telemetry.
	draining map[string]sim.Time

	// Telemetry (nil-safe handles).
	tApplies, tRejected *telemetry.Counter
	tDrains, tReconfigs *telemetry.Counter
	tUndrains, tRemoves *telemetry.Counter
	tActErrors          *telemetry.Counter
	hDrain              *telemetry.Histogram
	gDrainMax, gVersion *telemetry.Gauge
}

// NewReconciler builds a reconciler for one node. The seed feeds the
// backoff-jitter stream only.
func NewReconciler(eng *sim.Engine, act Actuator, seed int64) *Reconciler {
	r := &Reconciler{eng: eng, act: act, draining: make(map[string]sim.Time)}
	r.Ladder = recovery.New(eng, sim.NewRand(seed), reconcileParams, r.Converged, r.pass)
	return r
}

// SetTelemetry attaches convergence instrumentation, typically under a
// node scope as "ctrlplane": the ladder's episode counters and MTTR
// (time to converge) beside the reconciler's own.
func (r *Reconciler) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	r.Ladder.SetTelemetry(sc)
	r.tApplies = sc.Counter("applies")
	r.tRejected = sc.Counter("applies_rejected")
	r.tDrains = sc.Counter("drains")
	r.tReconfigs = sc.Counter("reconfigures")
	r.tUndrains = sc.Counter("undrains")
	r.tRemoves = sc.Counter("removes")
	r.tActErrors = sc.Counter("actuator_errors")
	r.hDrain = sc.Histogram("drain")
	r.gDrainMax = sc.Gauge("drain_max")
	r.gVersion = sc.Gauge("version")
}

// Version returns the version of the spec the reconciler is converging
// toward (0 before the first Apply).
func (r *Reconciler) Version() int {
	if !r.haveSpec {
		return 0
	}
	return r.desired.Version
}

// Apply accepts a new desired-state spec and opens a convergence
// episode. The version must strictly exceed the current one; stale or
// replayed specs are rejected and counted.
func (r *Reconciler) Apply(spec Spec) error {
	if err := spec.Validate(); err != nil {
		r.tRejected.Inc()
		return err
	}
	if r.haveSpec && spec.Version <= r.desired.Version {
		r.tRejected.Inc()
		return fmt.Errorf("ctrlplane: spec version %d does not advance current %d",
			spec.Version, r.desired.Version)
	}
	r.desired = spec
	r.haveSpec = true
	r.tApplies.Inc()
	r.gVersion.Set(int64(spec.Version))
	r.Kick()
	return nil
}

// Converged reports whether observed state matches the spec exactly:
// every desired tenant present with the desired shape, no undesired
// tenant running, nothing mid-drain.
func (r *Reconciler) Converged() bool {
	if !r.haveSpec {
		return true
	}
	if len(r.draining) > 0 {
		return false
	}
	obs := r.act.Observed()
	for _, t := range r.desired.Tenants {
		o, ok := obs[t.Name]
		if !ok || o != t {
			return false
		}
	}
	for name := range obs {
		if _, ok := r.desired.Tenant(name); !ok {
			return false
		}
	}
	return true
}

// pass is the ladder's one rung: walk the diff in sorted tenant order and
// progress each divergent tenant one step.
func (r *Reconciler) pass(int) {
	obs := r.act.Observed()

	// A drain whose tenant no longer runs is over: a failed reshape tore
	// the tenant down, and no later step would close the entry.
	for name := range r.draining {
		if _, ok := obs[name]; !ok {
			delete(r.draining, name)
		}
	}

	// Removals first (freeing cores a grow may need), in sorted order.
	removed := make([]string, 0)
	for name := range obs {
		if _, ok := r.desired.Tenant(name); !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		if r.drainStep(name) {
			r.tRemoves.Inc()
			if err := r.act.Remove(name); err != nil {
				r.tActErrors.Inc()
			} else {
				delete(r.draining, name)
			}
		}
	}

	for _, name := range r.desired.Names() {
		t, _ := r.desired.Tenant(name)
		o, running := obs[name]
		switch {
		case !running:
			// New tenant: nothing live to drain.
			r.tReconfigs.Inc()
			if err := r.act.Reconfigure(name, t); err != nil {
				r.tActErrors.Inc()
			}
		case o != t:
			// Live tenant changing shape: drain → reconfigure → undrain.
			if r.drainStep(name) {
				r.tReconfigs.Inc()
				if err := r.act.Reconfigure(name, t); err != nil {
					r.tActErrors.Inc()
					continue
				}
				r.undrain(name)
			}
		default:
			// The running shape is the desired one, but an abandoned
			// drain from an earlier spec may still hold the tenant:
			// nothing is left to reconfigure, so resume it.
			if _, open := r.draining[name]; open {
				r.undrain(name)
			}
		}
	}
}

// undrain closes a tenant's drain entry and resumes it.
func (r *Reconciler) undrain(name string) {
	delete(r.draining, name)
	r.tUndrains.Inc()
	r.act.Undrain(name)
}

// drainStep advances one tenant's drain: returns true once quiesced,
// recording the drain duration the first time it completes.
func (r *Reconciler) drainStep(name string) bool {
	start, open := r.draining[name]
	if !open {
		start = r.eng.Now()
		r.draining[name] = start
		r.tDrains.Inc()
	}
	if !r.act.Drain(name) {
		return false
	}
	d := int64(r.eng.Now() - start)
	r.hDrain.Observe(d)
	r.gDrainMax.Set(d)
	return true
}
