package sim

import "math/rand"

const (
	alfgLen  = 607
	alfgTap  = 273
	alfgCold = alfgLen - alfgTap // draws until every word has been read once
	m31      = 1<<31 - 1
)

// alfg is math/rand's additive lagged-Fibonacci source, bit for bit, with
// an O(1) Seed. math/rand fills all 607 state words at Seed by walking
// x[k+1] = 48271·x[k] mod (2^31-1) for 1 841 steps; but word i is a pure
// function of the folded seed x[0],
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i],  x[k] = 48271^k·x[0],
//
// so Seed only stores x[0]. Draws 1..273 read no word an earlier draw fed:
// each computes its two (three table multiplications apiece, no division,
// no chain) and stores nothing. Draw 274 builds the 607-word state once and
// replays them, so most sources never store a word.
type alfg struct {
	vec       *[alfgLen]uint64 // nil until draw 274
	x0        uint64           // folded seed, in [1, 2^31-2]
	tap, feed int
}

// alfgPow[i][j] = 48271^(21+3i+j) mod (2^31-1); alfgCooked is math/rand's
// additive table. Both are written during package initialisation only,
// so sources on any number of goroutines share them.
var alfgPow, alfgCooked = alfgTables()

// mulmod31 returns a·b mod (2^31-1) for a, b in [1, 2^31-2]: two folds of
// the high bits leave p <= 2^31-1, and p = 2^31-1 would mean a·b ≡ 0 mod a prime.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	p = p&m31 + p>>31
	return p&m31 + p>>31
}

// alfgTables builds the power table and recovers the additive table from
// the stream itself rather than copying 607 literals: the first 607
// outputs o[k] of math/rand's seed-1 source determine its seeded state v,
// and cooked[i] is v[i] with seed 1's word taken back out.
func alfgTables() (pow [alfgLen][3]uint32, cooked [alfgLen]uint64) {
	x := uint64(1)
	for k := 1; k < 21+3*alfgLen; k++ {
		x = mulmod31(x, 48271)
		if k >= 21 {
			pow[(k-21)/3][(k-21)%3] = uint32(x)
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var o [alfgLen + 1]uint64
	for k := 1; k <= alfgLen; k++ {
		o[k] = src.Uint64()
	}
	// Draw k sums the word it feeds, (941-k) mod 607, and word 607-k. From
	// draw 274 on the latter holds o[k-273], which gives up the fed word;
	// the first 273 draws then give up theirs.
	for k := alfgTap + 1; k <= alfgLen; k++ {
		cooked[(alfgLen+alfgCold-k)%alfgLen] = o[k] - o[k-alfgTap]
	}
	for k := 1; k <= alfgTap; k++ {
		cooked[alfgCold-k] = o[k] - cooked[alfgLen-k]
	}
	for i := range cooked {
		cooked[i] ^= uint64(pow[i][0])<<40 ^ uint64(pow[i][1])<<20 ^ uint64(pow[i][2]) // seed 1's word
	}
	return pow, cooked
}

// Seed folds seed as math/rand does and forgets the state.
func (g *alfg) Seed(seed int64) {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	g.x0 = uint64(seed)
	g.vec, g.tap, g.feed = nil, 0, alfgCold
}

func (g *alfg) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// word returns state word i as Seed leaves it.
func (g *alfg) word(i int) uint64 {
	p := &alfgPow[i]
	return mulmod31(g.x0, uint64(p[0]))<<40 ^ mulmod31(g.x0, uint64(p[1]))<<20 ^ mulmod31(g.x0, uint64(p[2])) ^ alfgCooked[i]
}

// Uint64 is math/rand's step.
func (g *alfg) Uint64() uint64 {
	if g.tap--; g.tap < 0 {
		g.tap += alfgLen
	}
	if g.feed--; g.feed < 0 {
		g.feed += alfgLen
	}
	if g.vec == nil {
		if g.tap >= alfgCold { // draws 1..273: the tap word was never fed
			return g.word(g.feed) + g.word(g.tap)
		}
		g.vec = new([alfgLen]uint64)
		for i := range g.vec {
			g.vec[i] = g.word(i)
		}
		for k := 1; k <= alfgTap; k++ { // replay draws 1..273
			g.vec[alfgCold-k] += g.vec[alfgLen-k]
		}
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return x
}
