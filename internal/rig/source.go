package rig

import (
	"flexdriver/internal/faults"
	"flexdriver/internal/sim"
)

// Poisson draws i.i.d. exponential gaps of the given mean off rng.
func Poisson(rng *sim.Rand, mean sim.Duration) func() sim.Duration {
	return func() sim.Duration { return rng.Exp(mean) }
}

// Every is the fixed-interval gap.
func Every(d sim.Duration) func() sim.Duration {
	return func() sim.Duration { return d }
}

// OpenLoop drives send from an open-loop arrival process on eng: the
// first tick fires `first` from now; every tick calls send burst times
// back to back and only then draws the gap to the next; a tick at or
// after stop sends nothing and ends the source. A slow system never slows
// the source down. Poisson sources pass first = gap(), drawn after any
// draw (a burst length) the stream owes first, so a given seed keeps its
// arrival instants.
func OpenLoop(eng *sim.Engine, first sim.Duration, stop sim.Time, burst int, gap func() sim.Duration, send func()) {
	var tick func()
	tick = func() {
		if eng.Now() >= stop {
			return
		}
		for b := 0; b < burst; b++ {
			send()
		}
		eng.After(gap(), tick)
	}
	eng.After(first, tick)
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
