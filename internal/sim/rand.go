package sim

import (
	"math"
	"math/rand"
)

// Rand is math/rand's generator over this package's sources, with the
// distributions the experiments need; a fixed seed makes a run reproducible.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic generator for the given seed: math/rand's
// stream for that seed, value for value, from a source that costs what is
// drawn from it (see alfg).
func NewRand(seed int64) *Rand {
	g := new(alfg)
	g.Seed(seed)
	return &Rand{rand.New(g)}
}

// splitmix is a SplitMix64 rand.Source64: 8 bytes of state against the
// lagged-Fibonacci source's ~5 KiB. Seeding either is O(1); memory is the
// difference. Population-scale workloads (10^5 per-connection streams in
// exps.KVServe) would pay ~500 MB for alfg; this one costs ~10 MB.
type splitmix struct{ s uint64 }

func (s *splitmix) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.s = uint64(seed) }

// NewLightRand returns a deterministic generator with O(1)-byte state
// (SplitMix64). Streams differ from NewRand's for the same seed, so a
// workload must pick one constructor and keep it — the aggregated/
// discrete equivalence only holds when both sides use the same one.
func NewLightRand(seed int64) *Rand {
	return &Rand{rand.New(&splitmix{s: uint64(seed)})}
}

// Zipf returns a sampler over [0, imax] with Zipf parameter s > 1 and
// offset v >= 1 (math/rand's parameterization), driven by r's stream —
// the key-popularity skew of the KV-serving workloads.
func (r *Rand) Zipf(s, v float64, imax uint64) func() uint64 {
	z := rand.NewZipf(r.Rand, s, v, imax)
	return z.Uint64
}

// Exp returns an exponentially distributed duration with the given mean,
// used for Poisson (open-loop) arrival processes.
func (r *Rand) Exp(mean Duration) Duration {
	d := Time(r.ExpFloat64() * float64(mean))
	d = max(d, 0)
	return d
}

// Pareto returns a bounded Pareto sample in [min, max] with tail index
// alpha. Used to model OS-jitter tails on the CPU baseline.
func (r *Rand) Pareto(min, max Duration, alpha float64) Duration {
	// Inverse-CDF sampling of a bounded Pareto distribution.
	lo, hi := float64(min), float64(max)
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return Time(x)
}

// Backoff returns the retry delay before attempt n+1 (n counts attempts
// made, from 1): base doubled per attempt and capped at max, then
// jittered ±25% with one draw from r's stream. The supervision ladder
// and the tenancy reconciler both pace retries with it.
func (r *Rand) Backoff(base, max Duration, n int) Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return Duration(float64(d) * (0.75 + 0.5*r.Float64()))
}
