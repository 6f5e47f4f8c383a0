// Package ctrlplane is the declarative multi-tenant control plane: a
// versioned desired-state spec (tenants, VF counts, queue quotas,
// bandwidth shares) and a per-node reconcile loop that drives observed
// state toward the spec via drain → reconfigure → undrain steps.
//
// The shape mirrors how real FEC-accelerator operators run fleets
// (ROADMAP item 4): the operator publishes a config, a per-node
// controller diffs it against what the node is actually running, and
// convergence happens through bounded, retried, observable steps — never
// by tearing down a live tenant without draining it first.
package ctrlplane

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// Tenant is one tenant's slice of a node: how many virtual functions
// and FLD cores it gets, the queue quota of each VF, and its bandwidth
// share (ETS weight among tenants plus an optional aggregate shaper).
type Tenant struct {
	Name          string
	VFs, Cores    int
	SQs, RQs, CQs int // per-VF queue quota
	// Weight is the tenant's ETS share of the egress port; RateGbps,
	// when nonzero, caps the tenant's aggregate egress rate.
	Weight   int
	RateGbps float64
}

// Spec is the versioned desired state for one node. Versions must
// strictly advance: a reconciler refuses a spec whose version does not
// exceed the one it is already converging toward, so a stale publish
// can never roll a node backward.
type Spec struct {
	Version int
	Tenants []Tenant
}

// Validate rejects specs that cannot be actuated.
func (s Spec) Validate() error {
	if s.Version <= 0 {
		return fmt.Errorf("ctrlplane: spec version must be positive, got %d", s.Version)
	}
	seen := make(map[string]bool, len(s.Tenants))
	for _, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("ctrlplane: tenant with empty name")
		}
		if strings.ContainsAny(t.Name, " \t\n,=/") {
			return fmt.Errorf("ctrlplane: tenant name %q contains reserved characters", t.Name)
		}
		// A name is a segment of the telemetry paths
		// <node>/ctrlplane/tenant/<name>/, which carry text, not bytes.
		if !utf8.ValidString(t.Name) {
			return fmt.Errorf("ctrlplane: tenant name %q is not valid UTF-8", t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("ctrlplane: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.VFs < 1 {
			return fmt.Errorf("ctrlplane: tenant %q needs at least one VF, got %d", t.Name, t.VFs)
		}
		if t.Cores < 0 || t.SQs < 0 || t.RQs < 0 || t.CQs < 0 || t.Weight < 0 {
			return fmt.Errorf("ctrlplane: tenant %q has a negative allotment", t.Name)
		}
		// Written so that NaN, for which every comparison is false, fails:
		// perVFRate turns the rate into a sim.BitRate.
		if !(t.RateGbps >= 0 && t.RateGbps <= math.MaxFloat64) {
			return fmt.Errorf("ctrlplane: tenant %q has a negative rate or one that is not finite", t.Name)
		}
	}
	return nil
}

// Tenant returns the named tenant's desired state and whether it is in
// the spec.
func (s Spec) Tenant(name string) (Tenant, bool) {
	for _, t := range s.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return Tenant{}, false
}

// Names returns the spec's tenant names, sorted — the reconciler's
// deterministic walk order.
func (s Spec) Names() []string {
	out := make([]string, 0, len(s.Tenants))
	for _, t := range s.Tenants {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
