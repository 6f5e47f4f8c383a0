package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// tieWorld is the fuzzer's sharded model: a ring of shards plus random
// extra conduits, every latency at least 200 ns and every delay a multiple
// of 50 ns, so same-picosecond ties between arrivals, and between arrivals
// and local events, are the norm. A frame is {id, hops left}: on arrival a
// shard schedules local work, and that work forwards the frame on one of
// the shard's conduits. Each shard draws from its own random stream and
// logs (time, kind, id) for every event it runs, so the per-shard traces
// are equal exactly when every shard ran the same events in the same order.
type tieWorld struct {
	g     *Group
	eng   []*Engine
	rng   []*Rand
	out   [][]tieLink // by source shard
	trace [][]string
}

type tieLink struct {
	c   *Conduit
	lat Duration
}

const tieStep = 50 * Nanosecond

func newTieWorld(seed int64, shards int, lookahead Duration) *tieWorld {
	w := &tieWorld{g: NewGroup(), out: make([][]tieLink, shards), trace: make([][]string, shards)}
	w.g.SetLookahead(lookahead)
	build := NewRand(seed)
	for i := 0; i < shards; i++ {
		w.eng = append(w.eng, w.g.NewEngine())
		w.rng = append(w.rng, NewRand(seed*31+int64(i)))
	}
	link := func(src, dst int) {
		c := NewConduit(w.eng[src], w.eng[dst], func(f []byte) { w.arrive(dst, f) })
		w.out[src] = append(w.out[src], tieLink{c, 200*Nanosecond + Duration(build.Intn(5))*tieStep})
	}
	for i := 0; i < shards; i++ {
		link(i, (i+1)%shards)
	}
	for k := build.Intn(2 * shards); k > 0; k-- {
		src := build.Intn(shards)
		link(src, (src+1+build.Intn(shards-1))%shards)
	}
	for i := 0; i < shards; i++ {
		for k := 0; k < 3; k++ {
			f := []byte{byte(i*3 + k), 12}
			w.eng[i].After(Duration(build.Intn(4))*tieStep, func() { w.work(i, f) })
		}
	}
	return w
}

func (w *tieWorld) log(shard int, kind string, f []byte) {
	w.trace[shard] = append(w.trace[shard], fmt.Sprintf("%d %s %d", w.eng[shard].Now(), kind, f[0]))
}

func (w *tieWorld) arrive(shard int, f []byte) {
	w.log(shard, "arrival", f)
	w.eng[shard].After(Duration(w.rng[shard].Intn(4))*tieStep, func() { w.work(shard, f) })
}

func (w *tieWorld) work(shard int, f []byte) {
	w.log(shard, "local", f)
	if f[1] == 0 {
		return
	}
	l := w.out[shard][w.rng[shard].Intn(len(w.out[shard]))]
	at := w.eng[shard].Now() + l.lat + Duration(w.rng[shard].Intn(3))*tieStep
	l.c.Send(at, []byte{f[0], f[1] - 1})
}

func runTieWorld(seed int64, shards int, lookahead Duration) [][]string {
	w := newTieWorld(seed, shards, lookahead)
	w.g.Run()
	return w.trace
}

// FuzzGroupWindowIndependence holds the window scheduler to its reference
// schedule: single-instant lockstep rounds (lookahead 0) against any
// lookahead up to the shortest link (200 ns), on a world made of ties.
func FuzzGroupWindowIndependence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(200))
	f.Add(int64(7), uint8(4), uint16(100))
	f.Add(int64(42), uint8(2), uint16(37))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, lookahead uint16) {
		n := 2 + int(shards%5)
		la := Duration(lookahead%201) * Nanosecond
		ref := runTieWorld(seed, n, 0)
		got := runTieWorld(seed, n, la)
		for i := range ref {
			if !reflect.DeepEqual(ref[i], got[i]) {
				t.Fatalf("seed %d, %d shards: shard %d's trace at lookahead %v differs from lookahead 0:\n got  %v\n want %v",
					seed, n, i, la, got[i], ref[i])
			}
		}
	})
}
