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
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"flexdriver/internal/kvspec"
)

// Tenant is one tenant's slice of a node: how many virtual functions
// and FLD cores it gets, the queue quota of each VF, and its bandwidth
// share (ETS weight among tenants plus an optional aggregate shaper).
type Tenant struct {
	Name  string `json:"name"`
	VFs   int    `json:"vfs"`
	Cores int    `json:"cores"`
	// Per-VF queue quota.
	SQs int `json:"sqs"`
	RQs int `json:"rqs"`
	CQs int `json:"cqs"`
	// Weight is the tenant's ETS share of the egress port; RateGbps,
	// when nonzero, caps the tenant's aggregate egress rate.
	Weight   int     `json:"weight"`
	RateGbps float64 `json:"rate_gbps,omitempty"`
}

// Spec is the versioned desired state for one node. Versions must
// strictly advance: a reconciler refuses a spec whose version does not
// exceed the one it is already converging toward, so a stale publish
// can never roll a node backward.
type Spec struct {
	Version int      `json:"version"`
	Tenants []Tenant `json:"tenants"`
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
		// JSON is the wire form; a name JSON cannot carry losslessly
		// would silently change identity crossing encodings.
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

// MarshalJSON-compatible round trips come from the struct tags; the
// text form below is the CLI/fuzzer encoding, one token per tenant, the
// tenant's name first in its token:
//
//	version=2 tenant=A,vfs=1,cores=2,sqs=4,rqs=1,cqs=2,weight=3,rate=10
//
// The integer attributes are written even at zero, so String∘Parse is
// an exact round trip. Validate, not the tables, owns the lower bounds:
// the JSON form needs them too.
var (
	specKeys = kvspec.Schema[Spec]{Name: "ctrlplane", Sep: ' ', Fields: []kvspec.Field[Spec]{
		{Key: "version", Ptr: func(s *Spec) any { return &s.Version }, Always: true},
		{Key: "tenant", Ptr: func(s *Spec) any { return (*tenantList)(&s.Tenants) }},
	}}
	tenantKeys = kvspec.Schema[Tenant]{Name: "ctrlplane", Sep: ',', Fields: []kvspec.Field[Tenant]{
		{Key: "vfs", Ptr: func(t *Tenant) any { return &t.VFs }, Always: true},
		{Key: "cores", Ptr: func(t *Tenant) any { return &t.Cores }, Always: true},
		{Key: "sqs", Ptr: func(t *Tenant) any { return &t.SQs }, Always: true},
		{Key: "rqs", Ptr: func(t *Tenant) any { return &t.RQs }, Always: true},
		{Key: "cqs", Ptr: func(t *Tenant) any { return &t.CQs }, Always: true},
		{Key: "weight", Ptr: func(t *Tenant) any { return &t.Weight }, Always: true},
		{Key: "rate", Ptr: func(t *Tenant) any { return &t.RateGbps }, Max: math.MaxFloat64},
	}}
)

// tenantList is the repeating tenant= key: "NAME,attr=value,...".
type tenantList []Tenant

func (l *tenantList) Add(val string) error {
	name, attrs, _ := strings.Cut(val, ",")
	t := Tenant{Name: name}
	if err := tenantKeys.Parse(attrs, &t); err != nil {
		return err
	}
	*l = append(*l, t)
	return nil
}

func (l *tenantList) Len() int { return len(*l) }

func (l *tenantList) Elem(i int) string {
	t := &(*l)[i]
	return t.Name + "," + tenantKeys.Format(t)
}

// String renders the spec in its one-line text form.
func (s Spec) String() string { return specKeys.Format(&s) }

// JSON renders the spec as JSON (the operator-facing wire form).
func (s Spec) JSON() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// ParseSpec parses either encoding: JSON (first byte '{') or the
// one-line text form. A text spec without a version fails Validate.
func ParseSpec(in string) (Spec, error) {
	var s Spec
	if in = strings.TrimSpace(in); strings.HasPrefix(in, "{") {
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			return Spec{}, fmt.Errorf("ctrlplane: bad JSON spec: %w", err)
		}
	} else if err := specKeys.Parse(in, &s); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
