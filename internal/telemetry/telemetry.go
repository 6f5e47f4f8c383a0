// Package telemetry is the reproduction's observability layer: a
// hierarchical registry of counters, gauges and histograms keyed by
// component path (e.g. "innova0/nic/sq3/doorbells"), plus a bounded
// TLP flight recorder for the PCIe fabric (recorder.go).
//
// Two design constraints drive the shape of the API:
//
//   - Zero allocation on the event hot path. Metric handles are created
//     once at setup time (Counter/Gauge/Histogram lookups build path
//     strings and may allocate); the per-event operations (Inc, Add,
//     Set, Observe) touch only pre-allocated ints.
//
//   - Nil safety. Every handle method is a no-op on a nil receiver, and
//     a nil *Registry or *Scope yields nil handles. A component
//     instrumented against a disabled registry therefore pays exactly
//     one predictable branch per event — calibrated timing results are
//     unchanged whether telemetry is attached or not.
//
// An engine runs one event at a time, so no metric handle is locked; a
// cell several shards of a sim.Group feed (the fault plane's Injected
// tallies) is written atomically by its owner, and the registry's lookup
// maps take a mutex (creation is a set-up-time or
// first-use activity, never the per-event path).
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"flexdriver/internal/sim"
)

// Counter is a monotonically increasing event count. It is a plain
// int64 so that a component's own statistics field can be the counter:
// CounterVar publishes &x.Stats.F under a path, the component keeps
// writing x.Stats.F++, and a snapshot reads the one cell both share.
type Counter int64

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	*c++
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	*c += Counter(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return int64(*c)
}

// Gauge is an instantaneous level that also tracks its high-water mark
// (e.g. buffer-pool occupancy).
type Gauge struct {
	v, hi int64
}

// Set stores the current level and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hi {
		g.hi = v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// High returns the high-water mark.
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi
}

// Histogram accumulates a distribution of non-negative integer
// observations in power-of-two buckets (bucket i holds values whose
// bit length is i, i.e. [2^(i-1), 2^i)). Power-of-two bucketing keeps
// Observe allocation-free and branch-cheap, which is all the hot paths
// (batch sizes, burst lengths) need.
type Histogram struct {
	counts [64]int64
	n, sum int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.n++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the arithmetic mean of the observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Registry is the root of the metric hierarchy. The zero value is not
// usable; create one with New. A nil *Registry is a valid "telemetry
// disabled" registry: every method returns nil handles or zero values.
type Registry struct {
	// mu guards the maps: a component may create a metric on first use
	// (a NIC's per-reason drop counter) mid-run, and nothing ties a
	// registry's readers to the goroutine that runs the simulation.
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64

	clock func() sim.Time
	rec   *Recorder
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Bind attaches a virtual-time source used to timestamp snapshots (so
// Diff can report interval rates). Binding twice is allowed; the first
// clock wins so a registry shared by several nodes on one engine binds
// once.
func (r *Registry) Bind(clock func() sim.Time) {
	if r == nil || r.clock != nil {
		return
	}
	r.clock = clock
}

// EnableRecorder attaches a TLP flight recorder with the given event
// capacity, returning it. Calling it again returns the existing
// recorder.
func (r *Registry) EnableRecorder(capacity int) *Recorder {
	if r == nil {
		return nil
	}
	if r.rec == nil {
		r.rec = NewRecorder(capacity)
	}
	return r.rec
}

// Recorder returns the attached flight recorder, or nil.
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	return r.rec
}

// Counter returns (creating if needed) the counter at path. Returns nil
// on a nil registry.
func (r *Registry) Counter(path string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[path]
	if !ok {
		c = new(Counter)
		r.counters[path] = c
	}
	return c
}

// CounterVar publishes the caller's own field v as the counter at path:
// the component increments *v directly and snapshots read it, so an
// event is counted once. A set-up-time call. Binding the same variable
// to its path again is a no-op; a path that already holds a different
// cell panics — two ledgers for one name is the bug this call exists to
// rule out.
func (r *Registry) CounterVar(path string, v *int64) {
	if r == nil {
		return
	}
	c := (*Counter)(v)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.counters[path]; ok && old != c {
		panic("telemetry: counter " + path + " is already bound to another variable")
	}
	r.counters[path] = c
}

// Gauge returns (creating if needed) the gauge at path.
func (r *Registry) Gauge(path string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[path]
	if !ok {
		g = &Gauge{}
		r.gauges[path] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram at path.
func (r *Registry) Histogram(path string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[path]
	if !ok {
		h = &Histogram{}
		r.hists[path] = h
	}
	return h
}

// Func registers a sampled metric: fn is evaluated at Snapshot time
// (used for derived values like link utilization that are cheap to read
// but expensive to push).
func (r *Registry) Func(path string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[path] = fn
}

// Scope returns a sub-scope whose metric paths are prefixed with
// name + "/". A nil registry yields a nil scope.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{reg: r, prefix: name + "/"}
}

// Scope is a path prefix over a registry. Components hold a *Scope and
// never see the full hierarchy; a nil *Scope disables instrumentation.
type Scope struct {
	reg    *Registry
	prefix string
}

// Scope returns a nested sub-scope.
func (s *Scope) Scope(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, prefix: s.prefix + name + "/"}
}

// Counter returns the counter at this scope's prefix + name.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(s.prefix + name)
}

// CounterVar publishes v as the counter at this scope's prefix + name
// (see Registry.CounterVar).
func (s *Scope) CounterVar(name string, v *int64) {
	if s == nil {
		return
	}
	s.reg.CounterVar(s.prefix+name, v)
}

// Gauge returns the gauge at this scope's prefix + name.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(s.prefix + name)
}

// Histogram returns the histogram at this scope's prefix + name.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(s.prefix + name)
}

// Func registers a sampled metric under this scope.
func (s *Scope) Func(name string, fn func() float64) {
	if s == nil {
		return
	}
	s.reg.Func(s.prefix+name, fn)
}

// Recorder returns the registry's flight recorder, or nil.
func (s *Scope) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.reg.Recorder()
}

// GaugeValue is a gauge's state in a snapshot.
type GaugeValue struct {
	Value, High int64
}

// HistValue is a histogram's state in a snapshot.
type HistValue struct {
	Count int64
	Mean  float64
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	// At is the virtual time the snapshot was taken (zero if the
	// registry was never bound to a clock).
	At sim.Time

	Counters map[string]int64
	Gauges   map[string]GaugeValue
	Hists    map[string]HistValue
	Funcs    map[string]float64
}

// Snapshot captures the current value of every metric. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]GaugeValue{},
		Hists:    map[string]HistValue{},
		Funcs:    map[string]float64{},
	}
	if r == nil {
		return s
	}
	if r.clock != nil {
		s.At = r.clock()
	}
	for p, c := range r.counters {
		s.Counters[p] = c.Value()
	}
	for p, g := range r.gauges {
		s.Gauges[p] = GaugeValue{Value: g.Value(), High: g.High()}
	}
	for p, h := range r.hists {
		s.Hists[p] = HistValue{Count: h.Count(), Mean: h.Mean()}
	}
	for p, fn := range r.funcs {
		s.Funcs[p] = fn()
	}
	return s
}

// Get returns the counter value at path (0 if absent).
func (s Snapshot) Get(path string) int64 { return s.Counters[path] }

// Sum totals every counter whose path starts with prefix and ends with
// suffix — the invariant-checking accessor for aggregating per-queue
// metrics (sq3/doorbells, sq7/doorbells, ...) without knowing queue IDs.
// Either string may be empty to match everything on that side.
func (s Snapshot) Sum(prefix, suffix string) int64 {
	var tot int64
	for p, v := range s.Counters {
		if strings.HasPrefix(p, prefix) && strings.HasSuffix(p, suffix) {
			tot += v
		}
	}
	return tot
}

// Hash returns the SHA-256 of the snapshot's String dump, in hex. Because
// the simulation is deterministic, the hash is a compact fingerprint of an
// entire run: every counter, byte total and histogram bucket on every node
// must match for two runs to agree. The determinism regression tests and
// the scenario fuzzer's replay-determinism invariant both pin on it.
func (s Snapshot) Hash() string {
	sum := sha256.Sum256(s.dump())
	return hex.EncodeToString(sum[:])
}

// Diff returns a snapshot holding the counter and histogram-count
// deltas since prev (gauges and funcs keep their current values — they
// are levels, not totals). At is this snapshot's time; At - prev.At is
// the span.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		At:       s.At,
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   s.Gauges,
		Hists:    make(map[string]HistValue, len(s.Hists)),
		Funcs:    s.Funcs,
	}
	for p, v := range s.Counters {
		d.Counters[p] = v - prev.Counters[p]
	}
	for p, v := range s.Hists {
		d.Hists[p] = HistValue{Count: v.Count - prev.Hists[p].Count, Mean: v.Mean}
	}
	return d
}

// String renders the snapshot as a sorted, aligned dump, one metric per
// line — the counter-snapshot format the docs show.
func (s Snapshot) String() string { return string(s.dump()) }

// dump is String's bytes: fmt's "%-*s  %d\n" &c. spelled with strconv, so
// the dump every scenario hashes is one buffer sized up front.
func (s Snapshot) dump() []byte {
	paths := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists)+len(s.Funcs))
	for p := range s.Counters {
		paths = append(paths, p)
	}
	for p := range s.Gauges {
		paths = append(paths, p)
	}
	for p := range s.Hists {
		paths = append(paths, p)
	}
	for p := range s.Funcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	width := 0
	for _, p := range paths {
		width = max(width, len(p))
	}
	b := make([]byte, 0, len(paths)*(width+16)+32)
	if s.At != 0 {
		b = append(append(append(b, "# snapshot at "...), s.At.String()...), '\n')
	}
	pad := strings.Repeat(" ", width+2)
	for _, p := range paths {
		// fmt pads to width in runes; two more spaces separate the value.
		b = append(append(b, p...), pad[utf8.RuneCountInString(p):]...)
		if v, ok := s.Counters[p]; ok {
			b = strconv.AppendInt(b, v, 10)
		} else if g, ok := s.Gauges[p]; ok {
			b = append(strconv.AppendInt(b, g.Value, 10), " (high "...)
			b = append(strconv.AppendInt(b, g.High, 10), ')')
		} else if h, ok := s.Hists[p]; ok {
			b = append(strconv.AppendInt(append(b, "n="...), h.Count, 10), " mean="...)
			b = strconv.AppendFloat(b, h.Mean, 'f', 2, 64)
		} else if f, ok := s.Funcs[p]; ok {
			b = strconv.AppendFloat(b, f, 'f', 4, 64)
		}
		b = append(b, '\n')
	}
	return b
}
