package exps

import (
	"fmt"
	"math"

	"flexdriver"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
	"flexdriver/internal/stats"
	"flexdriver/internal/swdriver"
)

// ClusterParams configures the cluster scaling experiment.
type ClusterParams struct {
	// Clients lists the client counts to sweep (default {1,2,4,8}).
	Clients []int
	// FLDCores is the number of FLD cores on the server's FPGA, load-
	// balanced by NIC RSS (§9).
	FLDCores int
	// FlowsPerClient is the number of UDP flows each client spreads its
	// load over; rounded up to a multiple of FLDCores.
	FlowsPerClient int
	// PerClientGbps is each client's offered goodput (Poisson arrivals).
	PerClientGbps float64
	// FrameSize is the UDP frame size in bytes.
	FrameSize int
	// QueueFrames bounds the switch's per-port output queues.
	QueueFrames int
	// Warmup, Window, Drain phase the measurement like the other
	// experiments: only the window counts.
	Warmup, Window, Drain flexdriver.Duration
	// Seed drives the per-client Poisson arrival streams.
	Seed int64
	// Hosts, when positive, folds each point's N clients into this many
	// aggregated-client hosts (flexdriver.AggregatedClients) instead of
	// N discrete nodes: client gi keeps its discrete arrival stream
	// (Seed*1000+gi) and per-client flow set, so offered load is
	// unchanged while topology cost drops from N nodes to Hosts nodes.
	// Zero keeps the historical one-host-per-client build.
	Hosts int
}

// DefaultClusterParams returns the standard sweep: N ∈ {1,2,4,8}
// clients at 5 Gbit/s each against a 4-core server, so the last point
// offers 40 Gbit/s into the 25 GbE server port and must tail-drop.
func DefaultClusterParams(window flexdriver.Duration) ClusterParams {
	return ClusterParams{
		Clients:        []int{1, 2, 4, 8},
		FLDCores:       4,
		FlowsPerClient: 32,
		PerClientGbps:  5,
		FrameSize:      512,
		QueueFrames:    64,
		Warmup:         150 * flexdriver.Microsecond,
		Window:         window,
		Drain:          250 * flexdriver.Microsecond,
		Seed:           1,
	}
}

// clusterPoint is one sweep point's measurements.
type clusterPoint struct {
	servedTotals
	clients      int
	offeredGbps  float64
	achievedGbps float64
	p50us, p99us float64
	imbalance    float64 // max relative deviation from the per-core mean
}

// balancedFlows picks source ports, scanning up from base, whose RSS hash
// spreads the client's flows exactly evenly over the server's cores —
// modeling a generator with enough flow entropy for RSS to balance (§9).
// Aggregated hosts carry many clients on one NIC, so each client scans
// from its own base and keeps a distinct flow-tag set for RSS spread and
// telemetry attribution.
func balancedFlows(src, dst *flexdriver.NIC, flows, cores, size int, base uint16) [][]byte {
	per := (flows + cores - 1) / cores
	count := make([]int, cores)
	var out [][]byte
	for sport := base; len(out) < per*cores && sport < 65000; sport++ {
		f := rig.UDPFrame(src, dst, sport, 7777, size)
		if b := int(netpkt.RSSHash(f)) % cores; count[b] < per {
			count[b]++
			out = append(out, f)
		}
	}
	return out
}

// seqOff is where the send ordinal rides in a UDP frame: Eth(14) +
// IPv4(20) + UDP(8).
const seqOff = 42

// rttHost is one traffic-carrying host of a measured, fault-free point:
// the rig client plus what it saw inside the measurement window, merged
// across hosts once the cluster is idle.
type rttHost struct {
	*rig.Client
	lat        []float64 // RTTs, us
	rx, rxB    int64     // replies and reply bytes
	sentWindow int64     // requests (aggregated sources only)
}

// servedPoint is the topology the cluster and kvserve points share: an
// RSS multi-core server, open-loop hosts, and one measurement window.
type servedPoint struct {
	*rig.Rig
	srv       *rig.Server
	hosts     []*rttHost
	measuring bool
}

// watch wraps a racked client into the point's window accounting.
func (pt *servedPoint) watch(c *rig.Client) *rttHost {
	h := &rttHost{Client: c}
	c.Port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
		if !pt.measuring || c.Truncated(fr) {
			return
		}
		if rtt, ok := c.Deliver(fr); ok {
			h.lat = append(h.lat, rtt.Seconds()*1e6)
		}
		h.rx++
		h.rxB += int64(len(fr))
	}
	pt.hosts = append(pt.hosts, h)
	return h
}

// addAggregated racks one aggregated-source host counting its in-window
// sends; cfg.OnSend (optional) stamps any further per-request fields.
func (pt *servedPoint) addAggregated(hi, off int, cfg flexdriver.AggregatedClientsConfig) {
	var h *rttHost
	stamp := cfg.OnSend
	cfg.OnSend = func(ci int, f []byte) {
		if pt.measuring {
			h.sentWindow++
		}
		if stamp != nil {
			stamp(ci, f)
		}
	}
	h = pt.watch(pt.AddAggregatedClient(fmt.Sprintf("client%d", hi), off, cfg))
}

// servedTotals is what every served point reports.
type servedTotals struct {
	lat           *stats.Sample
	sent, rx, rxB int64 // in-window
	fldRx         []int64
	tailDrops     int64
	pending       int                 // engine events left after quiesce
	snap          flexdriver.Snapshot // the final telemetry snapshot
}

// measure runs the window and merges the per-host accumulators now that
// the cluster is idle. Size hint: every measured-window packet can
// contribute one RTT observation, so preallocate generously to keep Add
// off the slice growth path at cluster scale.
func (pt *servedPoint) measure(warmup, window, drain flexdriver.Duration) servedTotals {
	rig.Window(pt, warmup, window, drain, func(open bool) { pt.measuring = open })
	pt.Run()
	t := servedTotals{lat: stats.NewSample(1 << 16), pending: pt.Pending(), tailDrops: pt.TailDrops()}
	for _, h := range pt.hosts {
		for _, v := range h.lat {
			t.lat.Add(v)
		}
		t.sent += h.sentWindow
		t.rx += h.rx
		t.rxB += h.rxB
	}
	for _, rt := range pt.srv.RTs {
		t.fldRx = append(t.fldRx, rt.FLD().Stats.RxPackets)
	}
	t.snap = pt.Telemetry().Snapshot()
	return t
}

// runClusterPoint runs one sweep point: n clients, each an open-loop
// Poisson source over many flows, against the multi-FLD server behind
// the ToR switch — one discrete host per client, or (p.Hosts > 0) folded
// onto aggregated hosts where client gi keeps the arrival stream
// (Seed*1000+gi) and flow-tag set (base sport strided per client) it
// would own as a discrete host.
func runClusterPoint(n int, p ClusterParams) clusterPoint {
	pt := &servedPoint{Rig: rig.New(flexdriver.WithDriver(genDriverParams()))}
	pt.SwitchQueueFrames(p.QueueFrames)
	pt.srv = pt.AddServer("server", p.FLDCores, func(f *flexdriver.FLD) { rig.InstallEcho(f) })
	pt.srv.Steer(flexdriver.Rule{})

	stop := p.Warmup + p.Window
	mean := period(float64(p.FrameSize), p.PerClientGbps)
	flows := func(h *flexdriver.Host, gi int) [][]byte {
		return balancedFlows(h.NIC, pt.srv.NIC, p.FlowsPerClient, p.FLDCores, p.FrameSize, uint16(4000+gi*97))
	}
	if p.Hosts > 0 {
		for hi, span := range rig.Split(n, min(p.Hosts, n)) {
			first := span.First
			pt.addAggregated(hi, seqOff, flexdriver.AggregatedClientsConfig{
				Clients:    span.N,
				StreamSeed: p.Seed*1000 + int64(first),
				Stop:       stop,
				Setup: func(h *flexdriver.Host, ci int, _ *sim.Rand) flexdriver.ClientSetup {
					return flexdriver.ClientSetup{Flows: flows(h, first+ci), Mean: mean}
				},
			})
		}
	} else {
		for ci := 0; ci < n; ci++ {
			c := pt.watch(pt.AddClient(fmt.Sprintf("client%d", ci), seqOff))
			c.Flows = flows(c.Host, 0)
			gap := rig.Poisson(sim.NewRand(p.Seed*1000+int64(ci)), mean)
			rig.OpenLoop(c.Host.Engine(), gap(), stop, 1, gap, c.Send)
		}
	}

	t := pt.measure(p.Warmup, p.Window, p.Drain)
	cp := clusterPoint{
		clients:      n,
		offeredGbps:  float64(n) * p.PerClientGbps,
		achievedGbps: gbps(t.rxB, p.Window),
		p50us:        t.lat.Median(),
		p99us:        t.lat.Percentile(99),
		servedTotals: t,
	}
	var total int64
	for _, rx := range t.fldRx {
		total += rx
	}
	coreMean := float64(total) / float64(len(t.fldRx))
	for _, rx := range t.fldRx {
		cp.imbalance = max(cp.imbalance, math.Abs(float64(rx)-coreMean)/coreMean)
	}
	return cp
}

// Cluster sweeps N clients against one multi-FLD server behind a ToR
// switch (the §9 scaling topology) and checks:
//
//   - aggregate goodput tracks the offered load while it fits the
//     server's 25 GbE port, and saturates at the Ethernet bound beyond;
//   - RSS keeps per-FLD load imbalance under 20%;
//   - the switch's bounded queues tail-drop only under overload;
//   - p99 latency inflates at saturation;
//   - the engine quiesces at every point.
func Cluster(p ClusterParams) *Result {
	r := &Result{ID: "cluster",
		Title: fmt.Sprintf("Cluster scale-out: N clients vs %d FLD cores behind RSS (§9)", p.FLDCores)}
	r.Columns = []string{"clients", "offered Gb/s", "achieved Gb/s", "p50 us", "p99 us", "per-FLD rx / drops"}

	bound := perfmodel.EthernetGoodput(25, p.FrameSize)
	points := make([]clusterPoint, 0, len(p.Clients))
	for _, n := range p.Clients {
		pt := runClusterPoint(n, p)
		points = append(points, pt)
		r.AddRow(d0(pt.clients), f1(pt.offeredGbps), f2(pt.achievedGbps),
			f1(pt.p50us), f1(pt.p99us),
			fmt.Sprintf("%v / %d", pt.fldRx, pt.tailDrops))
	}

	var pending int
	maxImb := 0.0
	underOK, monotone := true, true
	var drops0, dropsOver int64
	anyOver := false
	prev := 0.0
	for i, pt := range points {
		pending += pt.pending
		if pt.imbalance > maxImb {
			maxImb = pt.imbalance
		}
		if pt.offeredGbps <= 0.9*bound {
			if pt.achievedGbps < 0.9*pt.offeredGbps {
				underOK = false
			}
			drops0 += pt.tailDrops
		}
		if pt.offeredGbps >= 1.2*bound {
			anyOver = true
			dropsOver += pt.tailDrops
		}
		if i > 0 && pt.achievedGbps < 0.98*prev {
			monotone = false
		}
		prev = pt.achievedGbps
	}
	last := points[len(points)-1]

	r.Check("goodput tracks offered load below the wire bound", 1, b2f(underOK), "",
		underOK, ">= 90% of offered while it fits 25 GbE")
	r.Check("goodput scales monotonically with clients", 1, b2f(monotone), "", monotone, "")
	if anyOver {
		satOK := within(last.achievedGbps, bound, 0.15) && last.achievedGbps <= 1.02*bound
		r.Check("overload saturates at the 25 GbE bound", bound, last.achievedGbps, "Gbit/s",
			satOK, "switch fan-in caps the server port")
		r.Check("switch tail-drops only under overload", 0, float64(drops0), "frames",
			drops0 == 0 && dropsOver > 0,
			fmt.Sprintf("%d drops at the overloaded points", dropsOver))
		// Inflation needs an unsaturated point to compare against; a
		// sweep that starts over the bound (-clients 256) has none.
		if first := points[0]; first.offeredGbps <= 0.9*bound {
			r.Check("p99 latency inflates at saturation", first.p99us, last.p99us, "us",
				last.p99us > first.p99us, "queueing delay at the congested port")
		}
	}
	r.Check("per-FLD imbalance under RSS", 0.20, maxImb, "rel",
		maxImb < 0.20, "max relative deviation from the per-core mean")
	r.Check("sim engine quiesced at every point", 0, float64(pending), "events",
		pending == 0, "")
	return r
}
