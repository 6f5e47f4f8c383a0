package flexdriver

import (
	"fmt"
	"math/rand"
	"testing"

	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// TestAggregatedEquivalence pins the aggregation model's core claim: K
// clients folded into one AggregatedClients source emit exactly the
// frames, at exactly the instants, that K discrete open-loop senders
// with the same per-client seed streams would — for both Poisson
// singles and bursty trains. Offered load is a pure function of the
// arrival streams (open loop), so exact send-time equality is the
// strongest form of offered-load equivalence.
func TestAggregatedEquivalence(t *testing.T) {
	const K = 7
	const seedBase int64 = 4242
	stop := 50 * Microsecond
	mean := 900 * Nanosecond

	discrete := func(burstFn func(ci int, rng *sim.Rand) int) [][]Time {
		cl := NewCluster()
		sink := cl.AddHost("sink")
		times := make([][]Time, K)
		for ci := 0; ci < K; ci++ {
			h := cl.AddHost(fmt.Sprintf("c%d", ci))
			port := h.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
			frame := clusterUDPFrame(h.NIC, sink.NIC, uint16(4000+ci), 7777, 256)
			rng := sim.NewRand(seedBase + int64(ci))
			burst := burstFn(ci, rng)
			gap := mean * Duration(burst)
			ci := ci
			heng := h.Engine()
			var tick func()
			tick = func() {
				if heng.Now() >= stop {
					return
				}
				for b := 0; b < burst; b++ {
					times[ci] = append(times[ci], heng.Now())
					port.Send(append([]byte(nil), frame...))
				}
				heng.After(rng.Exp(gap), tick)
			}
			heng.After(rng.Exp(gap), tick)
		}
		cl.Run()
		return times
	}

	aggregated := func(burstFn func(ci int, rng *sim.Rand) int) ([][]Time, *AggregatedClients) {
		cl := NewCluster()
		sink := cl.AddHost("sink")
		times := make([][]Time, K)
		var src *AggregatedClients
		src = cl.AddAggregatedClients("agg", AggregatedClientsConfig{
			Clients:    K,
			StreamSeed: seedBase,
			Stop:       stop,
			Setup: func(h *Host, ci int, rng *sim.Rand) ClientSetup {
				return ClientSetup{
					Flows: [][]byte{clusterUDPFrame(h.NIC, sink.NIC, uint16(5000+ci), 7777, 256)},
					Mean:  mean,
					Burst: burstFn(ci, rng),
				}
			},
			OnSend: func(ci int, _ []byte) {
				times[ci] = append(times[ci], src.Host.Engine().Now())
			},
		})
		cl.Run()
		return times, src
	}

	for _, tc := range []struct {
		name  string
		burst func(ci int, rng *sim.Rand) int
	}{
		{"poisson", func(int, *sim.Rand) int { return 1 }},
		// The scenario fuzzer's bursty shape: the train length comes off
		// the client's own arrival stream before any gap draw.
		{"bursty", func(_ int, rng *sim.Rand) int { return 8 + rng.Intn(25) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := discrete(tc.burst)
			got, src := aggregated(tc.burst)
			var total int64
			for ci := 0; ci < K; ci++ {
				if len(got[ci]) != len(want[ci]) {
					t.Fatalf("client %d sent %d frames aggregated vs %d discrete",
						ci, len(got[ci]), len(want[ci]))
				}
				if len(want[ci]) == 0 {
					t.Fatalf("client %d sent nothing; the workload is miscalibrated", ci)
				}
				for i := range want[ci] {
					if got[ci][i] != want[ci][i] {
						t.Fatalf("client %d frame %d at %v aggregated vs %v discrete",
							ci, i, got[ci][i], want[ci][i])
					}
				}
				if src.cs[ci].fi != int64(len(want[ci])) {
					t.Fatalf("source counts %d frames for client %d, bookkeeping saw %d",
						src.cs[ci].fi, ci, len(want[ci]))
				}
				total += src.cs[ci].fi
			}
			if src.TotalSent() != total {
				t.Fatalf("TotalSent %d != sum of per-client counts %d", src.TotalSent(), total)
			}
		})
	}
}

// TestAggregatedClientsTelemetry checks the source's attribution
// counters land in the registry under the host's scope.
func TestAggregatedClientsTelemetry(t *testing.T) {
	reg := NewRegistry()
	cl := NewCluster(WithTelemetry(reg))
	sink := cl.AddHost("sink")
	src := cl.AddAggregatedClients("agg", AggregatedClientsConfig{
		Clients:    3,
		StreamSeed: 7,
		Stop:       20 * Microsecond,
		Setup: func(h *Host, ci int, _ *sim.Rand) ClientSetup {
			return ClientSetup{
				Flows: [][]byte{clusterUDPFrame(h.NIC, sink.NIC, uint16(4000+ci), 7777, 256)},
				Mean:  500 * Nanosecond,
			}
		},
	})
	cl.Run()
	snap := reg.Snapshot()
	if got := snap.Gauges["agg/clients/modeled"].Value; got != 3 {
		t.Errorf("agg/clients/modeled = %d, want 3", got)
	}
	if got := snap.Get("agg/clients/frames"); got != src.TotalSent() || got == 0 {
		t.Errorf("agg/clients/frames = %d, want %d (nonzero)", got, src.TotalSent())
	}
	if snap.Get("agg/clients/bytes") < src.TotalSent()*256 {
		t.Errorf("agg/clients/bytes undercounts: %d for %d frames",
			snap.Get("agg/clients/bytes"), src.TotalSent())
	}
}

// quantSource is a rand.Source whose every draw makes ExpFloat64 accept
// on the ziggurat's first step with one of three values, so sim.Rand.Exp
// returns one of three durations and clients' next ticks collide often.
type quantSource struct{ s uint64 }

func (q *quantSource) Int63() int64 {
	q.s = q.s*6364136223846793005 + 1442695040888963407
	return int64(1+q.s>>60%3) << 55
}

func (q *quantSource) Seed(int64) {}

func quantRand(seed int64) *sim.Rand {
	return &sim.Rand{Rand: rand.New(&quantSource{s: uint64(seed)})}
}

// TestAggregatedTieOrder pins the source's firing order where it is
// hardest: on arrival streams quantised so that many clients are due at
// the same instant. Every tick must fire the (next, index) minimum of a
// brute-force scan over a shadow copy of each client's stream, and when
// the source stops every shadow client must be at or past the stop line.
func TestAggregatedTieOrder(t *testing.T) {
	const K = 21
	const seedBase int64 = 99
	stop := 100 * Microsecond
	mean := 20 * Microsecond
	cl := NewCluster()
	sink := cl.AddHost("sink")
	next := make([]Time, K)
	shadow := make([]*sim.Rand, K)
	for ci := range shadow {
		shadow[ci] = quantRand(seedBase + int64(ci))
		next[ci] = shadow[ci].Exp(mean)
	}
	var src *AggregatedClients
	fired, ties := 0, 0
	src = cl.AddAggregatedClients("agg", AggregatedClientsConfig{
		Clients:    K,
		StreamSeed: seedBase,
		Stop:       stop,
		Rand:       quantRand,
		Setup: func(h *Host, ci int, _ *sim.Rand) ClientSetup {
			return ClientSetup{
				Flows: [][]byte{clusterUDPFrame(h.NIC, sink.NIC, uint16(5000+ci), 7777, 64)},
				Mean:  mean,
			}
		},
		OnSend: func(ci int, _ []byte) {
			now := src.Host.Engine().Now()
			m := 0
			for i := range next {
				if next[i] < next[m] {
					m = i
				}
			}
			for i := range next {
				if i != m && next[i] == next[m] {
					ties++
				}
			}
			if ci != m || now != next[m] {
				t.Fatalf("fire %d: client %d at %v, want client %d at %v", fired, ci, now, m, next[m])
			}
			fired++
			next[ci] = now + shadow[ci].Exp(mean)
		},
	})
	cl.Run()
	for ci, at := range next {
		if at < stop {
			t.Fatalf("client %d was due at %v, before the stop line %v, and never fired", ci, at, stop)
		}
	}
	if fired != int(src.TotalSent()) || ties == 0 {
		t.Fatalf("%d fires, %d frames sent, %d ties: want equal counts and some ties", fired, src.TotalSent(), ties)
	}
	t.Logf("%d fires, %d tied clients seen at fire time", fired, ties)
}
