package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// alfgEdgeSeeds are the seeds math/rand's fold treats specially: zero and
// everything congruent to it mod 2^31-1 (replaced by a constant), the
// neighbours of the modulus, negatives, and the ends of int64.
var alfgEdgeSeeds = []int64{
	0, 1, -1, 2, 89482311, m31 - 1, m31, 1 << 31, 1<<31 + 1, -m31, -m31 - 1, 1 - m31,
	2 * m31, 3*m31 + 7, -5 * m31, 1 << 32, 1<<62 + 12345, math.MinInt64, math.MinInt64 + 1,
	math.MaxInt64, math.MaxInt64 - 1,
}

// firstDiff draws n Uint64s from both generators in lockstep and returns
// the index of the first disagreement, or -1.
func firstDiff(got *Rand, want *rand.Rand, n int) int {
	for i := 0; i < n; i++ {
		if got.Uint64() != want.Uint64() {
			return i
		}
	}
	return -1
}

// mixedDiff interleaves the derived draws the simulator uses (each reaches
// the source through a different math/rand path) and returns the first
// step that disagrees, or -1.
func mixedDiff(got *Rand, want *rand.Rand, steps int) int {
	for i := 0; i < steps; i++ {
		same := true
		switch i % 6 {
		case 0:
			same = got.Int63() == want.Int63()
		case 1:
			same = got.Float64() == want.Float64()
		case 2:
			same = got.ExpFloat64() == want.ExpFloat64()
		case 3:
			same = got.Intn(i+1) == want.Intn(i+1)
		case 4:
			g, w := got.Perm(i%9+1), want.Perm(i%9+1)
			for j := range g {
				same = same && g[j] == w[j]
			}
		case 5:
			same = got.Uint64() == want.Uint64()
		}
		if !same {
			return i
		}
	}
	return -1
}

// TestALFGMatchesMathRand is the oracle for the tentpole claim: NewRand's
// stream is math/rand's for every seed, through the cold region (draws
// 1..334, with the tap word changing source at 274), three wraps of the
// 607-word ring, the derived distributions, and re-seeding at every stage
// of warmth. It also proves the table derivation on every run.
func TestALFGMatchesMathRand(t *testing.T) {
	const draws = 2000 // > 334 + 2·607: cold region and three wraps
	seeds := append([]int64(nil), alfgEdgeSeeds...)
	pick := NewLightRand(20)
	for len(seeds) < len(alfgEdgeSeeds)+2000 {
		// Every magnitude from a few bits to all 64, both signs.
		seeds = append(seeds, int64(pick.Uint64())>>uint(pick.Intn(64)))
	}
	for _, s := range seeds {
		if i := firstDiff(NewRand(s), rand.New(rand.NewSource(s)), draws); i >= 0 {
			t.Fatalf("seed %d: Uint64 draw %d differs from math/rand", s, i+1)
		}
		if i := mixedDiff(NewRand(s), rand.New(rand.NewSource(s)), 700); i >= 0 {
			t.Fatalf("seed %d: mixed draw %d differs from math/rand", s, i)
		}
	}
	// Re-seed through the embedded *rand.Rand (what echoClients.frng does)
	// untouched, cold on either side of the tap switch, exactly warm, and
	// long warm: stale words must never be read.
	for _, at := range []int{0, 1, 10, 272, 273, 274, 300, 333, 334, 335, 606, 607, 1000} {
		for i, s := range alfgEdgeSeeds {
			got, want := NewRand(s), rand.New(rand.NewSource(s))
			if d := firstDiff(got, want, at); d >= 0 {
				t.Fatalf("seed %d: draw %d differs", s, d+1)
			}
			s2 := seeds[len(seeds)-1-i]
			got.Seed(s2)
			want.Seed(s2)
			if d := firstDiff(got, want, draws); d >= 0 {
				t.Fatalf("seed %d, re-seeded to %d after %d draws: draw %d differs", s, s2, at, d+1)
			}
		}
	}
}

// TestALFGPromotion pins what a source costs: until its 274th draw it
// holds the folded seed and two cursors and allocates nothing, and that
// draw builds the 607-word state in exactly one 4 864 B allocation (the
// 4 856 B array in its size class), as often as a re-seed drops it.
func TestALFGPromotion(t *testing.T) {
	if n := unsafe.Sizeof(alfg{}); n > 64 {
		t.Fatalf("an unpromoted alfg is %d bytes, want <= 64", n)
	}
	var g alfg
	draw := func(n int) func() {
		return func() {
			g.Seed(7)
			for i := 0; i < n; i++ {
				g.Uint64()
			}
		}
	}
	cold, promote := draw(alfgTap), draw(alfgTap+1)
	if a := testing.AllocsPerRun(100, cold); a != 0 {
		t.Errorf("%d draws allocate %.1f times, want 0", alfgTap, a)
	}
	if a := testing.AllocsPerRun(100, promote); a != 1 {
		t.Errorf("%d draws allocate %.1f times, want 1", alfgTap+1, a)
	}
	// TotalAlloc is process-wide: a background allocation can only add
	// bytes, so the least of a few trials is the promotion's own cost.
	const runs = 100
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			promote()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if least != 4864 {
		t.Errorf("promotion allocates %d B, want 4864", least)
	}
}

// FuzzALFGMatchesMathRand lets the fuzzer pick the seed, the stream
// length and where a re-seed lands. The corpus also stops on either side
// of the promotion draw (274) and re-seeds just before, at and after it.
func FuzzALFGMatchesMathRand(f *testing.F) {
	for i, s := range alfgEdgeSeeds {
		f.Add(s, uint16(700+i), uint16(20*i))
	}
	for n := uint16(alfgTap - 1); n <= alfgTap+2; n++ {
		f.Add(int64(n), n, uint16(math.MaxUint16))
		f.Add(-int64(n), 2*n, n)
	}
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		before := min(int(draws), int(reseedAt))
		if d := firstDiff(got, want, before); d >= 0 {
			t.Fatalf("seed %d: draw %d differs", seed, d+1)
		}
		if reseedAt <= draws {
			seed = int64(want.Uint64()) // either sign, any magnitude
			got.Seed(seed)
			want.Seed(seed)
		}
		if d := firstDiff(got, want, int(draws)-before); d >= 0 {
			t.Fatalf("after %d draws, seed %d: draw %d differs", before, seed, d+1)
		}
	})
}

// TestALFGConcurrentSources: goroutines seed and draw from their own sources
// at the same time and share only the tables; run under -race.
func TestALFGConcurrentSources(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := NewRand(0)
			for i := 0; i < 200; i++ {
				s := int64(g*1000 + i)
				if i%2 == 0 {
					got = NewRand(s)
				} else {
					got.Seed(s)
				}
				if d := firstDiff(got, rand.New(rand.NewSource(s)), 50+3*i); d >= 0 {
					t.Errorf("goroutine %d seed %d: draw %d differs", g, s, d+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkRand *Rand

// BenchmarkNewRand is what most of a topology's streams cost: seed a
// source and draw a handful of values.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRand = NewRand(int64(i))
		sinkRand.Int63()
		sinkRand.Int63()
		sinkRand.Int63()
		sinkRand.Int63()
	}
}
