package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flexdriver/internal/sim"
)

// TestNilSafety: every handle and registry operation must be a no-op
// (not a panic) when telemetry is disabled — the instrumented hot paths
// rely on this.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	var sc *Scope
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *Recorder

	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x") != nil {
		t.Fatal("nil registry must return nil handles")
	}
	if reg.Scope("a") != nil || sc.Scope("b") != nil {
		t.Fatal("nil scopes must propagate")
	}
	if sc.Counter("x") != nil || sc.Gauge("x") != nil || sc.Histogram("x") != nil {
		t.Fatal("nil scope must return nil handles")
	}
	sc.Func("u", func() float64 { return 1 })
	reg.Func("u", func() float64 { return 1 })
	var own int64
	sc.CounterVar("x", &own)
	reg.CounterVar("x", &own)
	reg.Bind(func() sim.Time { return 0 })

	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(7)
	rec.Record(TLPEvent{})
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || h.Count() != 0 || rec.Len() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if reg.EnableRecorder(4) != nil || reg.Recorder() != nil || sc.Recorder() != nil {
		t.Fatal("nil registry has no recorder")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || snap.Get("x") != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHierarchyAndHandles(t *testing.T) {
	reg := New()
	nic := reg.Scope("innova0").Scope("nic")
	db := nic.Scope("sq3").Counter("doorbells")
	db.Inc()
	db.Add(2)
	if got := reg.Counter("innova0/nic/sq3/doorbells").Value(); got != 3 {
		t.Fatalf("hierarchical path value = %d, want 3", got)
	}
	// Same path returns the same handle.
	if reg.Counter("innova0/nic/sq3/doorbells") != db {
		t.Fatal("counter lookup must be idempotent")
	}

	g := nic.Gauge("occupancy")
	g.Set(10)
	g.Set(4)
	if g.Value() != 4 || g.High() != 10 {
		t.Fatalf("gauge value=%d high=%d, want 4/10", g.Value(), g.High())
	}

	h := nic.Histogram("batch")
	for _, v := range []int64{1, 2, 3, 4, 8} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Mean() != 18.0/5 {
		t.Fatalf("hist mean = %v", h.Mean())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != len(counts) || len(bounds) == 0 {
		t.Fatalf("buckets %v %v", bounds, counts)
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n != 5 {
		t.Fatalf("bucket counts sum to %d", n)
	}
}

func TestSnapshotDiffAndRate(t *testing.T) {
	eng := sim.NewEngine()
	reg := New()
	reg.Bind(eng.Now)
	c := reg.Counter("a/b")
	reg.Func("util", func() float64 { return 0.5 })

	c.Add(10)
	s0 := reg.Snapshot()
	eng.After(sim.Microsecond, func() { c.Add(30) })
	eng.Run()
	s1 := reg.Snapshot()

	if s1.Interval(s0) != sim.Microsecond {
		t.Fatalf("interval = %v", s1.Interval(s0))
	}
	d := s1.Diff(s0)
	if d.Counters["a/b"] != 30 {
		t.Fatalf("diff = %d, want 30", d.Counters["a/b"])
	}
	// 30 events per microsecond = 3e7 events/s.
	if r := s1.Rate("a/b", s0); r != 30e6 {
		t.Fatalf("rate = %v, want 3e7", r)
	}
	if s1.Funcs["util"] != 0.5 {
		t.Fatalf("func sample = %v", s1.Funcs["util"])
	}
	dump := s1.String()
	if !strings.Contains(dump, "a/b") || !strings.Contains(dump, "40") {
		t.Fatalf("dump missing counter:\n%s", dump)
	}
}

func TestRecorderRingAndOrder(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 7; i++ {
		rec.Record(TLPEvent{Time: sim.Time(i), Type: MemWr, Link: "l", Bytes: i})
	}
	if rec.Len() != 4 || rec.Total() != 7 || rec.Cap() != 4 {
		t.Fatalf("len=%d total=%d cap=%d", rec.Len(), rec.Total(), rec.Cap())
	}
	evs := rec.Events()
	for i, ev := range evs {
		if want := sim.Time(3 + i); ev.Time != want {
			t.Fatalf("event %d at %v, want %v (oldest-first)", i, ev.Time, want)
		}
	}
}

func TestChromeTraceJSON(t *testing.T) {
	rec := NewRecorder(16)
	rec.Record(TLPEvent{Time: 1000, Dur: 500, Link: "nic", Dir: Up, Type: MemRd, Addr: 0x1000, Wire: 24})
	rec.Record(TLPEvent{Time: 2000, Dur: 700, Link: "fld", Dir: Down, Type: CplD, Addr: 0x1000, Bytes: 64, Wire: 84})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var x, m int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "X":
			x++
		case "M":
			m++
		}
	}
	if x != 2 {
		t.Fatalf("want 2 complete events, got %d", x)
	}
	if m == 0 {
		t.Fatal("want process/thread metadata events")
	}
}

// TestCounterVar: a published field is the counter. Writes to the field
// show up in Snapshot, Diff and Hash with no handle in between;
// publishing the same field again changes nothing; a second field under
// a taken path is a set-up bug and panics.
func TestCounterVar(t *testing.T) {
	reg := New()
	var stats struct{ Tx, Rx int64 }
	sc := reg.Scope("nic")
	sc.CounterVar("tx", &stats.Tx)
	sc.CounterVar("rx", &stats.Rx)
	sc.CounterVar("tx", &stats.Tx) // same cell: idempotent

	stats.Tx = 7
	a := reg.Snapshot()
	if a.Get("nic/tx") != 7 || a.Get("nic/rx") != 0 {
		t.Fatalf("snapshot reads tx=%d rx=%d, want 7 0", a.Get("nic/tx"), a.Get("nic/rx"))
	}
	if _, ok := a.Counters["nic/rx"]; !ok {
		t.Fatal("a published field at zero must still have its path")
	}
	stats.Tx += 5
	stats.Rx++
	b := reg.Snapshot()
	if d := b.Diff(a); d.Get("nic/tx") != 5 || d.Get("nic/rx") != 1 {
		t.Fatalf("diff tx=%d rx=%d, want 5 1", d.Get("nic/tx"), d.Get("nic/rx"))
	}
	if a.Hash() == b.Hash() {
		t.Fatal("hash must move with the field")
	}
	// The handle form and the field form of one path are the same cell.
	reg.Counter("nic/tx").Inc()
	if stats.Tx != 13 {
		t.Fatalf("handle Inc did not reach the field: %d", stats.Tx)
	}

	// Same dump as a registry that created the counters itself.
	ref := New()
	ref.Counter("nic/tx").Add(13)
	ref.Counter("nic/rx").Add(1)
	if got, want := reg.Snapshot().String(), ref.Snapshot().String(); got != want {
		t.Fatalf("published fields dump differently:\n%s\nvs\n%s", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("publishing a different variable under a taken path must panic")
		}
	}()
	var other int64
	sc.CounterVar("tx", &other)
}

// TestHotPathAllocs guards the zero-allocation claim for the per-event
// operations.
func TestHotPathAllocs(t *testing.T) {
	reg := New()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	rec := NewRecorder(128)
	ev := TLPEvent{Time: 1, Dur: 2, Link: "l", Type: MemWr, Bytes: 64, Wire: 88}
	var own int64
	reg.CounterVar("own", &own)

	allocs := testing.AllocsPerRun(1000, func() {
		own++
		c.Inc()
		c.Add(2)
		g.Set(5)
		h.Observe(9)
		rec.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f per event, want 0", allocs)
	}
}

// TestSnapshotStringGolden pins the dump byte for byte against what the
// fmt verbs ("%-*s  %d\n", "%d (high %d)", "n=%d mean=%.2f", "%.4f")
// printed before String moved to strconv: every kind of metric, negative
// values, non-finite funcs, one path longer than the rest and one whose
// rune count differs from its byte count (fmt pads by runes). The literal
// and the hash were captured from the fmt implementation.
func TestSnapshotStringGolden(t *testing.T) {
	reg := New()
	reg.Bind(func() sim.Time { return 1500 * sim.Nanosecond })
	reg.Counter("a/nic/sq1/doorbells").Add(42)
	reg.Counter("a/x").Add(-7)
	reg.Counter("zero")
	reg.Counter("node/with/a/path/much/longer/than/the/rest").Add(1 << 40)
	reg.Counter("ünï/cødé").Add(3)
	g := reg.Gauge("a/nic/depth")
	g.Set(9)
	g.Set(-2)
	h := reg.Histogram("a/lat")
	for _, v := range []int64{10, 15, 16} {
		h.Observe(v)
	}
	reg.Histogram("a/empty")
	reg.Func("a/share", func() float64 { return 2.0 / 3 })
	reg.Func("a/neg", func() float64 { return -1234.56785 })
	reg.Func("a/nan", math.NaN)
	reg.Func("a/inf", func() float64 { return math.Inf(1) })

	const want = `# snapshot at 1.500us
a/empty                                     n=0 mean=0.00
a/inf                                       +Inf
a/lat                                       n=3 mean=13.67
a/nan                                       NaN
a/neg                                       -1234.5678
a/nic/depth                                 -2 (high 9)
a/nic/sq1/doorbells                         42
a/share                                     0.6667
a/x                                         -7
node/with/a/path/much/longer/than/the/rest  1099511627776
zero                                        0
ünï/cødé                                    3
`
	snap := reg.Snapshot()
	if got := snap.String(); got != want {
		t.Fatalf("dump drifted from the fmt format:\n%s\nwant:\n%s", got, want)
	}
	if got := snap.Hash(); got != "f47ae81124d5515e288d461a13884bdf46ef3166ef94371c21bc30db18d3cf3e" {
		t.Fatalf("hash of the golden dump = %s", got)
	}
}
