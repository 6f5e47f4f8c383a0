package sim

import "testing"

// TestLightRandReseed: re-seeding a light generator restarts the stream
// NewLightRand draws for that seed, through splitmix's Seed.
func TestLightRandReseed(t *testing.T) {
	r := NewLightRand(5)
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r.Uint64()
	r.Seed(5)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d after Seed(5) = %#x, want %#x", i, got, w)
		}
	}
}
