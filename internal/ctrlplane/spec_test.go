package ctrlplane

import (
	"math"
	"strings"
	"testing"
)

func specAB() Spec {
	return Spec{Version: 3, Tenants: []Tenant{
		{Name: "A", VFs: 1, Cores: 2, SQs: 4, RQs: 1, CQs: 2, Weight: 3, RateGbps: 10},
		{Name: "B", VFs: 2, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1},
	}}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the expected error; "" = valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"zero version", func(s *Spec) { s.Version = 0 }, "version"},
		{"empty name", func(s *Spec) { s.Tenants[0].Name = "" }, "empty name"},
		{"reserved char", func(s *Spec) { s.Tenants[0].Name = "a,b" }, "reserved"},
		{"duplicate", func(s *Spec) { s.Tenants[1].Name = "A" }, "duplicate"},
		{"no VFs", func(s *Spec) { s.Tenants[0].VFs = 0 }, "at least one VF"},
		{"negative quota", func(s *Spec) { s.Tenants[0].SQs = -1 }, "negative"},
		{"negative rate", func(s *Spec) { s.Tenants[0].RateGbps = -1 }, "negative rate"},
		{"NaN rate", func(s *Spec) { s.Tenants[0].RateGbps = math.NaN() }, "not finite"},
		{"infinite rate", func(s *Spec) { s.Tenants[0].RateGbps = math.Inf(1) }, "not finite"},
	}
	for _, c := range cases {
		s := specAB()
		c.mut(&s)
		err := s.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestSpecNamesSorted(t *testing.T) {
	s := Spec{Version: 1, Tenants: []Tenant{
		{Name: "zeta", VFs: 1}, {Name: "alpha", VFs: 1}, {Name: "mid", VFs: 1},
	}}
	names := s.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}
