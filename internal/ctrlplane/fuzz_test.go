package ctrlplane

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTenancySpec fuzzes both spec encodings. Property: any input
// ParseSpec accepts must validate, and both of its renderings must parse
// back to the same spec. Specs are compared, not their strings: a NaN
// rate prints the same twice and is equal to nothing.
func FuzzParseTenancySpec(f *testing.F) {
	f.Add("version=1 tenant=A,vfs=1,cores=2,sqs=4,rqs=1,cqs=2,weight=3,rate=10")
	f.Add("version=2 tenant=A,vfs=1,cores=0,sqs=0,rqs=0,cqs=0,weight=0 tenant=B,vfs=2,cores=1,sqs=2,rqs=1,cqs=2,weight=1")
	f.Add(`{"version":3,"tenants":[{"name":"A","vfs":1,"cores":2,"sqs":4,"rqs":1,"cqs":2,"weight":3,"rate_gbps":10}]}`)
	f.Add("version=1")
	f.Add("version=1 tenant=A,vfs=1,rate=0.25")
	f.Add("")
	f.Add("version=0 tenant=,vfs=-1")
	f.Add("{not json")
	f.Add("version=1 tenant=A,vfs=1,rate=NaN")
	f.Add("version=1 tenant=A,vfs=1,vfs=2")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", in, verr)
		}
		if len(s.Tenants) == 0 {
			s.Tenants = nil // JSON's "tenants":[] is the text form's no tenant
		}
		text := s.String()
		again, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("String() of an accepted spec does not re-parse: %q: %v", text, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("text round trip of %q diverged:\n first  %#v\n second %#v", text, s, again)
		}
		// The JSON rendering must round-trip to the same spec too.
		fromJSON, err := ParseSpec(s.JSON())
		if err != nil {
			t.Fatalf("JSON() of an accepted spec does not re-parse: %q: %v", s.JSON(), err)
		}
		if !reflect.DeepEqual(fromJSON, s) {
			t.Fatalf("JSON round trip of %q diverged:\n first  %#v\n second %#v", s.JSON(), s, fromJSON)
		}
		if strings.HasPrefix(strings.TrimSpace(in), "{") && s.Version <= 0 {
			t.Fatalf("JSON spec with non-positive version %d accepted", s.Version)
		}
	})
}
