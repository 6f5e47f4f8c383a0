// Package kvspec is the one key=value codec behind the simulator's
// textual specs. A schema is an ordered field table; Parse and Format
// are the only places a key=value token is read or written, so a rule
// enforced here — no unknown key, no key given twice, no NaN, no
// out-of-range number, no negative duration, no bool but 0/1/true/false —
// holds for the scenario spec and the fault spec at once. Format writes
// fields in table order and omits a field at its zero value unless it is
// marked Always, so Parse(Format(v)) == v for every v that Parse can
// produce.
package kvspec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"flexdriver/internal/sim"
)

// Value is the escape for a field whose syntax is not one of the
// built-in ones (frames=min:max, the nested faults= spec). Format omits
// it when String returns "" unless the field is Always.
type Value interface {
	Set(val string) error
	String() string
}

// Field is one key of a schema. The type Ptr returns picks the value
// syntax:
//
//	*bool          0, 1, true or false; written as 1
//	*int, *int64   decimal, within [Min, Max]
//	*float64       strconv syntax, never NaN, within [Min, Max]
//	*string        verbatim, one of Enum when Enum is set
//	*sim.Duration  Go syntax ("200us"), never negative
//	*[]int64       semicolon-separated ("1;5;9"), each within [Min, Max]
//	Value          whatever Set accepts
//
// Min and Max are inclusive; both zero means the type's whole range.
type Field[T any] struct {
	Key      string
	Ptr      func(*T) any
	Min, Max float64
	Enum     []string
	Always   bool // Format writes the key even at its zero value
}

// Schema is the field table of one spec. Name prefixes every error. Sep
// separates tokens: ' ' stands for any run of whitespace; with any other
// byte, whitespace around tokens, keys and values is ignored and empty
// tokens are skipped.
type Schema[T any] struct {
	Name   string
	Sep    byte
	Fields []Field[T]
}

// Parse decodes text into v, which holds the defaults of keys text does
// not give. Every error names the schema and the offending key.
func (s *Schema[T]) Parse(text string, v *T) error {
	var toks []string
	if s.Sep == ' ' {
		toks = strings.Fields(text)
	} else {
		toks = strings.Split(text, string(s.Sep))
	}
	if len(s.Fields) > 64 {
		panic("kvspec: more than 64 fields")
	}
	var seen uint64 // bit i: Fields[i] was given
	for _, tok := range toks {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", s.Name, tok)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		i := 0
		for i < len(s.Fields) && s.Fields[i].Key != key {
			i++
		}
		if i == len(s.Fields) {
			return fmt.Errorf("%s: unknown key %q", s.Name, key)
		}
		if seen&(1<<i) != 0 {
			return fmt.Errorf("%s: key %s given twice", s.Name, key)
		}
		seen |= 1 << i
		f := &s.Fields[i]
		if err := f.set(f.Ptr(v), val); err != nil {
			return fmt.Errorf("%s: bad value for %s: %w", s.Name, key, err)
		}
	}
	return nil
}

// Format encodes v in the form Parse accepts.
func (s *Schema[T]) Format(v *T) string {
	b := make([]byte, 0, 128) // most specs fit: one allocation, the string
	for i := range s.Fields {
		f := &s.Fields[i]
		n := len(b)
		var zero bool
		if b, zero = appendValue(s.key(b, f.Key), f.Ptr(v)); zero && !f.Always {
			b = b[:n]
		}
	}
	return string(b)
}

// key appends the separator, unless b is empty, and "key=".
func (s *Schema[T]) key(b []byte, key string) []byte {
	if len(b) > 0 {
		b = append(b, s.Sep)
	}
	return append(append(b, key...), '=')
}

// Int parses a decimal integer within [min, max], for Value
// implementations whose syntax is built from integers.
func Int(val string, min, max float64) (int, error) {
	n, err := parseInt(val, strconv.IntSize, min, max)
	return int(n), err
}

func parseInt(val string, bits int, min, max float64) (int64, error) {
	n, err := strconv.ParseInt(val, 10, bits)
	if err != nil {
		return 0, err
	}
	return n, inRange(val, float64(n), min, max)
}

// inRange is the one numeric range check. It is written so that NaN,
// for which every comparison is false, fails it.
func inRange(val string, n, min, max float64) error {
	if min == 0 && max == 0 {
		min, max = math.Inf(-1), math.Inf(1)
	}
	if !(n >= min && n <= max) {
		return fmt.Errorf("%s outside [%v,%v]", val, min, max)
	}
	return nil
}

// maxDuration is the longest time.Duration a sim.Duration's picoseconds
// hold: 106 days.
const maxDuration = time.Duration(math.MaxInt64 / sim.Nanosecond)

// set parses val into the value p points at.
func (f *Field[T]) set(p any, val string) (err error) {
	switch p := p.(type) {
	case *bool:
		switch val {
		case "1", "true":
			*p = true
		case "0", "false":
			*p = false
		default:
			return fmt.Errorf("%q is not 0, 1, true or false", val)
		}
	case *int:
		*p, err = Int(val, f.Min, f.Max)
	case *int64:
		*p, err = parseInt(val, 64, f.Min, f.Max)
	case *float64:
		if *p, err = strconv.ParseFloat(val, 64); err == nil {
			err = inRange(val, *p, f.Min, f.Max)
		}
	case *string:
		if *p = val; f.Enum != nil && !slices.Contains(f.Enum, val) {
			return fmt.Errorf("must be one of %s", strings.Join(f.Enum, ", "))
		}
	case *sim.Duration:
		var d time.Duration
		if d, err = time.ParseDuration(val); err != nil {
			return err
		}
		// A negative duration puts a window or a schedule before time zero.
		if d < 0 || d > maxDuration {
			return fmt.Errorf("duration %v outside [0s,%v]", d, maxDuration)
		}
		*p = sim.Duration(d) * sim.Nanosecond
	case *[]int64:
		*p = nil
		for _, e := range strings.Split(val, ";") {
			n, err := parseInt(strings.TrimSpace(e), 64, f.Min, f.Max)
			if err != nil {
				return err
			}
			*p = append(*p, n)
		}
	case Value:
		err = p.Set(val)
	default:
		panic("kvspec: unsupported field type")
	}
	return err
}

// appendValue appends the text of the value p points at and reports
// whether it is the zero value.
func appendValue(b []byte, p any) ([]byte, bool) {
	switch p := p.(type) {
	case *bool:
		if *p {
			return append(b, '1'), false
		}
		return append(b, '0'), true
	case *int:
		return strconv.AppendInt(b, int64(*p), 10), *p == 0
	case *int64:
		return strconv.AppendInt(b, *p, 10), *p == 0
	case *float64:
		return strconv.AppendFloat(b, *p, 'g', -1, 64), *p == 0
	case *string:
		return append(b, *p...), *p == ""
	case *sim.Duration:
		// Parse only produces whole nanoseconds, so this is lossless.
		return append(b, time.Duration(*p/sim.Nanosecond).String()...), *p == 0
	case *[]int64:
		for i, n := range *p {
			if i > 0 {
				b = append(b, ';')
			}
			b = strconv.AppendInt(b, n, 10)
		}
		return b, len(*p) == 0
	case Value:
		s := p.String()
		return append(b, s...), s == ""
	}
	panic("kvspec: unsupported field type")
}
