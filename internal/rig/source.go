package rig

import (
	"flexdriver/internal/faults"
	"flexdriver/internal/sim"
	"flexdriver/internal/stats"
)

// Poisson draws i.i.d. exponential gaps of the given mean off rng.
func Poisson(rng *sim.Rand, mean sim.Duration) func() sim.Duration {
	return func() sim.Duration { return rng.Exp(mean) }
}

// Every is the fixed-interval gap.
func Every(d sim.Duration) func() sim.Duration {
	return func() sim.Duration { return d }
}

// source is one open-loop arrival process; OpenLoop and OpenLoopN differ
// only in what ends it.
type source struct {
	eng   *sim.Engine
	stop  sim.Time // a tick at or after stop sends nothing
	ticks int      // ticks left to send on; negative for no count
	burst int
	gap   func() sim.Duration
	send  func()
}

// tick calls send burst times back to back and only then draws the gap
// to the next tick, unless the source has ended.
func tick(arg any) {
	s := arg.(*source)
	if s.eng.Now() >= s.stop || s.ticks == 0 {
		return
	}
	s.ticks--
	for b := 0; b < s.burst; b++ {
		s.send()
	}
	s.eng.AfterArg(s.gap(), tick, s)
}

// OpenLoop drives send from an open-loop arrival process on eng: the
// first tick fires `first` from now; every tick calls send burst times
// back to back and only then draws the gap to the next; a tick at or
// after stop sends nothing and ends the source. A slow system never slows
// the source down. Poisson sources pass first = gap(), drawn after any
// draw (a burst length) the stream owes first, so a given seed keeps its
// arrival instants.
func OpenLoop(eng *sim.Engine, first sim.Duration, stop sim.Time, burst int, gap func() sim.Duration, send func()) {
	eng.AfterArg(first, tick, &source{eng: eng, stop: stop, ticks: -1, burst: burst, gap: gap, send: send})
}

// OpenLoopN is OpenLoop ended by a count instead of a deadline: n sends,
// the first now, each followed by its gap draw (the tick after the last
// sends nothing), so n sends cost n draws.
func OpenLoopN(eng *sim.Engine, n int, gap func() sim.Duration, send func()) {
	eng.AfterArg(0, tick, &source{eng: eng, stop: 1<<63 - 1, ticks: n, burst: 1, gap: gap, send: send})
}

// Window is the measured run's phasing on anything that advances
// simulated time (an engine, a node, a cluster): run to warmup, edge(true),
// run to warmup+window, edge(false), then the drain. The edges fire
// between RunUntil calls, when nothing is executing, so a flag reader
// (measuring = open) and a counter reader (in = count − in, which leaves
// in holding the count's advance) see the same events inside the window.
func Window(r interface{ RunUntil(sim.Time) }, warmup, window, drain sim.Duration, edge func(open bool)) {
	r.RunUntil(warmup)
	edge(true)
	r.RunUntil(warmup + window)
	edge(false)
	r.RunUntil(warmup + window + drain)
}

// PingPong is the closed-loop latency probe on Eng: Send issues one
// request, and the caller's reply handler calls Reply, which closes the
// round trip in flight and fires the next, until N are recorded past the
// first Warm.
type PingPong struct {
	Eng     *sim.Engine
	Warm, N int
	Send    func()
	sentAt  sim.Time
	seen    int
	rtts    stats.Sample
}

// Reply closes the round trip in flight; the caller's reply handler calls
// it.
func (p *PingPong) Reply() {
	if p.seen++; p.seen > p.Warm {
		p.rtts.Add((p.Eng.Now() - p.sentAt).Microseconds())
	}
	if p.rtts.N() < p.N {
		p.sentAt = p.Eng.Now()
		p.Send()
	}
}

// Run fires the first request, runs Eng until the loop ends and returns
// the recorded round trips in µs.
func (p *PingPong) Run() *stats.Sample {
	p.sentAt = p.Eng.Now()
	p.Send()
	p.Eng.Run()
	return &p.rtts
}

// Span is one host's share of a population split: N members starting at
// global index First.
type Span struct{ First, N int }

// Split deals n members over hosts hosts as evenly as possible, the
// remainder going to the first hosts, in global-index order — so member
// gi keeps the seed stream it would own as a discrete host.
func Split(n, hosts int) []Span {
	spans := make([]Span, hosts)
	first := 0
	for hi := range spans {
		k := n / hosts
		if hi < n%hosts {
			k++
		}
		spans[hi] = Span{first, k}
		first += k
	}
	return spans
}

// MaxCrashFor is the longest configured crash-window duration across
// every failure-domain class — the dominant term of any honest MTTR
// bound: an episode detected the instant a component dies cannot close
// before the component returns.
func MaxCrashFor(cfg faults.Config) sim.Duration {
	m := cfg.FLDResetFor
	for _, d := range []sim.Duration{cfg.NICFLRFor, cfg.NodeCrashFor,
		cfg.DrvCrashFor, cfg.SwRebootFor, cfg.PartFor, cfg.FlapFor} {
		if d > m {
			m = d
		}
	}
	return m
}
