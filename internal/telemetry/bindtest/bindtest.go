// Package bindtest is the test helper behind the single-ledger rule: a
// component's statistics struct is complete in the registry, field by
// field, or the test that calls Fields fails.
package bindtest

import (
	"reflect"
	"testing"

	"flexdriver/internal/telemetry"
)

// Fields writes a distinct value into every exported int64 field of the
// struct stats points to (after the component's SetTelemetry ran against
// reg) and requires each to read back from a snapshot at
// prefix+paths[field]. Fields named in unpublished have no path by
// design. A field in neither list — one added without its CounterVar
// line — fails, as does a path no field answers for.
func Fields(t *testing.T, reg *telemetry.Registry, prefix string, stats any, paths map[string]string, unpublished ...string) {
	t.Helper()
	skip := map[string]bool{}
	for _, name := range unpublished {
		skip[name] = true
	}
	v := reflect.ValueOf(stats).Elem()
	want := map[string]int64{}
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Int64 || !f.CanSet() || skip[name] {
			continue
		}
		path, ok := paths[name]
		if !ok {
			t.Errorf("%s.%s is neither published nor listed as unpublished", v.Type(), name)
			continue
		}
		f.SetInt(int64(1000 + i))
		want[prefix+path] = int64(1000 + i)
	}
	if len(want) != len(paths) {
		t.Errorf("%s: %d of %d listed paths matched a field", v.Type(), len(want), len(paths))
	}
	snap := reg.Snapshot()
	for path, val := range want {
		if got, ok := snap.Counters[path]; !ok || got != val {
			t.Errorf("%s = %d (present %v), want %d", path, got, ok, val)
		}
	}
}
