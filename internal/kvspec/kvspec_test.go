package kvspec_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"flexdriver/internal/faults"
	"flexdriver/internal/kvspec"
	"flexdriver/internal/scenario"
	"flexdriver/internal/sim"
)

// toy has one field of every kind the codec knows.
type toy struct {
	N    int
	On   bool
	Big  int64
	F    float64
	Mode string
	Wait sim.Duration
	Ords []int64
	Lo   int
	Hi   int
}

// span is a Value: lo-hi.
type span struct{ lo, hi *int }

func (s span) Set(val string) (err error) {
	lo, hi, _ := strings.Cut(val, "-")
	if *s.lo, err = kvspec.Int(lo, 0, 9); err != nil {
		return err
	}
	*s.hi, err = kvspec.Int(hi, 0, 9)
	return err
}

func (s span) String() string {
	if *s.lo == 0 && *s.hi == 0 {
		return ""
	}
	return fmt.Sprintf("%d-%d", *s.lo, *s.hi)
}

func toySchema(sep byte) *kvspec.Schema[toy] {
	return &kvspec.Schema[toy]{Name: "toy", Sep: sep, Fields: []kvspec.Field[toy]{
		{Key: "n", Ptr: func(t *toy) any { return &t.N }, Min: 1, Max: 8, Always: true},
		{Key: "on", Ptr: func(t *toy) any { return &t.On }},
		{Key: "big", Ptr: func(t *toy) any { return &t.Big }},
		{Key: "f", Ptr: func(t *toy) any { return &t.F }, Max: 1},
		{Key: "mode", Ptr: func(t *toy) any { return &t.Mode }, Enum: []string{"a", "b"}},
		{Key: "wait", Ptr: func(t *toy) any { return &t.Wait }},
		{Key: "ords", Ptr: func(t *toy) any { return &t.Ords }, Min: 1, Max: math.Inf(1)},
		{Key: "span", Ptr: func(t *toy) any { return span{&t.Lo, &t.Hi} }},
	}}
}

// TestFormatParse: Format writes table order whatever order Parse read,
// omits zero values except Always keys, and Parse∘Format is the
// identity.
func TestFormatParse(t *testing.T) {
	for _, tc := range []struct {
		sep      byte
		in, want string
	}{
		{' ', "", "n=1"},
		{' ', "wait=1500ns\tbig=-7  on=true n=3", "n=3 on=1 big=-7 wait=1.5µs"},
		{' ', "mode=b f=0.25 ords=1;5;9 span=2-4 on=0", "n=1 f=0.25 mode=b ords=1;5;9 span=2-4"},
		{',', " n = 2 ,, f=1e-300 , ords= 3 ; 4,", "n=2,f=1e-300,ords=3;4"},
	} {
		s := toySchema(tc.sep)
		v := toy{N: 1} // the default of a key the text does not give
		if err := s.Parse(tc.in, &v); err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		got := s.Format(&v)
		if got != tc.want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", tc.in, got, tc.want)
		}
		var again toy
		if err := s.Parse(got, &again); err != nil || !reflect.DeepEqual(again, v) {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", got, again, err, v)
		}
	}
}

// TestRejects: every rule of the codec, once, with the message a user
// reads.
func TestRejects(t *testing.T) {
	for in, want := range map[string]string{
		"n":               `toy: "n" is not key=value`,
		"zzz=1":           `toy: unknown key "zzz"`,
		"n=1 n=1":         "toy: key n given twice",
		"span=1-2 span=3": "toy: key span given twice",
		"n=9":             "toy: bad value for n: 9 outside [1,8]",
		"n=x":             "toy: bad value for n: strconv.ParseInt",
		"big=1e3":         "toy: bad value for big: strconv.ParseInt",
		"f=NaN":           "toy: bad value for f: NaN outside [0,1]",
		"f=-0.5":          "toy: bad value for f: -0.5 outside [0,1]",
		"on=yes":          `toy: bad value for on: "yes" is not 0, 1, true or false`,
		"mode=c":          "toy: bad value for mode: must be one of a, b",
		"wait=-1us":       "toy: bad value for wait: duration -1µs outside [0s,",
		"wait=10000000s":  "toy: bad value for wait: duration 2777h46m40s outside [0s,",
		"wait=5":          "toy: bad value for wait: time: missing unit",
		"ords=0":          "toy: bad value for ords: 0 outside [1,+Inf]",
		"ords=1;;2":       "toy: bad value for ords: strconv.ParseInt",
		"ords=":           "toy: bad value for ords: strconv.ParseInt",
		"span=3-x":        "toy: bad value for span: strconv.ParseInt",
	} {
		var v toy
		err := toySchema(' ').Parse(in, &v)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error starting %q", in, err, want)
		}
	}
	// An unbounded float still refuses NaN.
	s := kvspec.Schema[toy]{Name: "toy", Sep: ' ', Fields: []kvspec.Field[toy]{
		{Key: "f", Ptr: func(t *toy) any { return &t.F }}}}
	var v toy
	if err := s.Parse("f=NaN", &v); err == nil {
		t.Error("unbounded float accepted NaN")
	}
	if err := s.Parse("f=-Inf", &v); err != nil {
		t.Errorf("unbounded float refused -Inf: %v", err)
	}
}

// TestClosedHoles is the regression table of what the hand-written
// parsers let through: each rejected row parsed without an error before
// they became tables over this package, and the message names the key.
func TestClosedHoles(t *testing.T) {
	parsers := map[string]func(string) error{
		"scenario": func(in string) error { _, err := scenario.Parse(in); return err },
		"faults":   func(in string) error { _, err := faults.ParseSpec(in); return err },
	}
	for _, tc := range []struct {
		schema, in string
		want       string // a substring of the error; "" = must parse
	}{
		{"scenario", "rdma=banana", `scenario: bad value for rdma: "banana" is not 0, 1, true or false`},
		{"scenario", "reconfig=yes tenants=2", "scenario: bad value for reconfig: "},
		{"scenario", "clients=1 clients=3", "scenario: key clients given twice"},
		{"scenario", "faults=wire.loss=0.1,wire.loss=0.2", "scenario: bad value for faults: faults: key wire.loss given twice"},
		{"faults", "wire.loss=0.1,wire.loss=0.2", "faults: key wire.loss given twice"},
		{"faults", "wire.dropn=1;2,wire.dropn=3", "faults: key wire.dropn given twice"},
		{"faults", "wire.dropn=0", "faults: bad value for wire.dropn: 0 outside [1,+Inf]"},
		{"faults", "start=10000000s", "faults: bad value for start: duration "},

		// Rejected before and still.
		{"scenario", "zzz=1", `scenario: unknown key "zzz"`},
		{"faults", "zzz=1", `faults: unknown key "zzz"`},
		{"scenario", "frames=64:64:64", "scenario: bad value for frames: "},
		{"scenario", "gbps=NaN", "scenario: bad value for gbps: NaN outside "},
		{"scenario", "gbps=0", "scenario: bad value for gbps: 0 outside "},
		{"faults", "wire.loss=NaN", "faults: bad value for wire.loss: NaN outside [0,1]"},

		// A preset is a starting point, not a first giving of its keys.
		{"faults", "light,wire.loss=0.1", ""},
	} {
		err := parsers[tc.schema](tc.in)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %q: %v", tc.schema, tc.in, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s %q: got %v, want an error containing %q", tc.schema, tc.in, err, tc.want)
		}
	}
}
