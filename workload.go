package flexdriver

import (
	"fmt"

	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/telemetry"
)

// ClientSetup describes one modeled client inside an AggregatedClients
// source: its flow templates (round-robined), the mean inter-tick gap
// before burst scaling, and the burst length (0 or 1 = Poisson single
// frames, >1 = back-to-back trains at the same mean rate).
type ClientSetup struct {
	Flows [][]byte
	Mean  Duration
	Burst int
}

// AggregatedClientsConfig configures one aggregated traffic source.
type AggregatedClientsConfig struct {
	// Clients is K, the number of open-loop clients this source folds
	// into a single event-driven sender. Cost is O(frames): the source
	// keeps one pending engine event (the earliest client's next tick)
	// over an internal next-arrival heap, not one timer per client.
	Clients int
	// StreamSeed seeds client ci's private arrival stream as
	// NewRand(StreamSeed + ci) — the same one-stream-per-client shape
	// the discrete experiments use, which is what makes a K-aggregated
	// source send the exact frames at the exact times K discrete
	// clients would. Callers splitting one logical population over
	// several hosts pass StreamSeed = base + firstGlobalIndex so every
	// client keeps the stream it would own as a discrete host.
	StreamSeed int64
	// Setup is called once per client at construction, in client order,
	// with the carrying host (frames need its NIC addresses) and the
	// client's already-seeded arrival rng. Draws it makes (burst
	// lengths, flow sizes from its own streams) land before the
	// client's first inter-arrival draw, matching the discrete loops.
	Setup func(h *Host, client int, rng *sim.Rand) ClientSetup
	// OnSend observes each frame copy just before it is posted —
	// sequence stamping, RTT bookkeeping; a handler copies what it keeps.
	// The client index is the
	// source-local one; add the host's base for a global ordinal.
	OnSend func(client int, frame []byte)
	// Stop is the cutoff: a client whose tick fires at or after Stop
	// sends nothing more, exactly like the discrete senders' stop
	// check. Required.
	Stop Time
	// TxEntries/RxEntries size the host's EthPort (default 512 each).
	TxEntries, RxEntries int
	// Rand constructs client ci's arrival rng from StreamSeed+ci (nil =
	// sim.NewRand, the stream every pre-existing workload pins).
	// Population-scale sources (10^5 modeled connections) pass
	// sim.NewLightRand: same determinism, ~600x less state per client.
	Rand func(seed int64) *sim.Rand
}

// AggregatedClients models K open-loop clients as one event-driven
// source on a single host: per-client Poisson or bursty arrival
// streams, per-client flow sets with distinct tags for RSS spread and
// telemetry attribution, superposed through an internal next-arrival
// heap so a "512-client" host costs one engine event per frame train —
// not 512 engines, goroutines, or timer entries.
//
// Determinism: with StreamSeed laid out as the discrete experiments
// seed their per-client rngs, the aggregated source emits byte- and
// time-identical offered load (the equivalence the exps test pins).
type AggregatedClients struct {
	Host *Host
	Port *EthPort

	cfg  AggregatedClientsConfig
	eng  *sim.Engine
	cs   []aggClient
	next sim.Heap[struct{}] // next ticks, the client index in Seq
	stop Time
	f    []byte // the frame being sent: EthPort.Send copies it

	frames, bytes *telemetry.Counter // nil without telemetry
}

// aggClient is one modeled client's arrival state; its next tick is its
// entry in the source's heap.
type aggClient struct {
	gap   Duration
	rng   *sim.Rand
	flows [][]byte
	burst int
	fi    int64 // round-robin flow cursor == frames sent
}

// AddAggregatedClients builds one host carrying an aggregated source:
// the host, an EthPort sized per the config, an own-IP steering rule
// into its RQ, and the K client streams, first ticks already drawn and
// scheduled. Receive-side handling stays with the caller via
// src.Port.OnReceive.
func (c *Cluster) AddAggregatedClients(name string, cfg AggregatedClientsConfig) *AggregatedClients {
	h := c.AddHost(name)
	return AttachAggregatedClients(h, cfg)
}

// AttachAggregatedClients installs an aggregated source on an existing
// host (AddAggregatedClients is the usual entry; this is for callers
// that steer or rack the host themselves before attaching).
func AttachAggregatedClients(h *Host, cfg AggregatedClientsConfig) *AggregatedClients {
	if cfg.Clients <= 0 {
		panic("flexdriver: AggregatedClientsConfig.Clients must be positive")
	}
	if cfg.Stop <= 0 {
		panic("flexdriver: AggregatedClientsConfig.Stop must be set")
	}
	if cfg.Setup == nil {
		panic("flexdriver: AggregatedClientsConfig.Setup is required")
	}
	if cfg.TxEntries == 0 {
		cfg.TxEntries = 512
	}
	if cfg.RxEntries == 0 {
		cfg.RxEntries = 512
	}
	port := h.Drv.NewClientPort(swdriver.EthPortConfig{
		TxEntries: cfg.TxEntries, RxEntries: cfg.RxEntries})

	s := &AggregatedClients{
		Host: h, Port: port, cfg: cfg, eng: h.Engine(), stop: cfg.Stop,
		cs:   make([]aggClient, 0, cfg.Clients),
		next: sim.NewHeap[struct{}](cfg.Clients),
	}
	if reg := h.Telemetry(); reg != nil {
		sc := reg.Scope(h.Name()).Scope("clients")
		sc.Gauge("modeled").Set(int64(cfg.Clients))
		s.frames = sc.Counter("frames")
		s.bytes = sc.Counter("bytes")
	}
	newRand := cfg.Rand
	if newRand == nil {
		newRand = sim.NewRand
	}
	now := s.eng.Now()
	for ci := 0; ci < cfg.Clients; ci++ {
		rng := newRand(cfg.StreamSeed + int64(ci))
		set := cfg.Setup(h, ci, rng)
		if len(set.Flows) == 0 {
			panic(fmt.Sprintf("flexdriver: aggregated client %d has no flows", ci))
		}
		burst := set.Burst
		burst = max(burst, 1)
		gap := set.Mean * Duration(burst)
		s.cs = append(s.cs, aggClient{rng: rng, flows: set.Flows, burst: burst, gap: gap})
		s.next.Push(now+rng.Exp(gap), uint64(ci), struct{}{})
	}
	s.eng.AtArg(s.next.Min().At, aggFire, s)
	return s
}

// Clients returns K, the number of modeled clients.
func (s *AggregatedClients) Clients() int { return len(s.cs) }

// TotalSent returns the frames sent across all modeled clients.
func (s *AggregatedClients) TotalSent() int64 {
	var n int64
	for i := range s.cs {
		n += s.cs[i].fi
	}
	return n
}

// aggFire is the source's single recurring engine event: the earliest
// client ticks (sends its burst, redraws its next arrival), the heap
// re-orders, and the event reschedules at the new minimum. When the
// minimum reaches the stop line every client is at or past it — the
// same per-client cutoff the discrete senders apply — so the source
// quiesces by simply not rescheduling.
func aggFire(a any) {
	s := a.(*AggregatedClients)
	now := s.eng.Now()
	if now >= s.stop {
		return
	}
	m := s.next.Min()
	ci := int(m.Seq)
	c := &s.cs[ci]
	for b := 0; b < c.burst; b++ {
		s.f = append(s.f[:0], c.flows[int(c.fi)%len(c.flows)]...)
		f := s.f
		c.fi++
		if s.cfg.OnSend != nil {
			s.cfg.OnSend(ci, f)
		}
		if s.frames != nil {
			s.frames.Inc()
			s.bytes.Add(int64(len(f)))
		}
		s.Port.Send(f)
	}
	m.At = now + c.rng.Exp(c.gap)
	s.next.FixMin()
	s.eng.AtArg(s.next.Min().At, aggFire, s)
}
