package exps

import (
	"encoding/binary"
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/memmodel"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rig"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/tcp"
)

// KVServeParams configures the TCP-offload key-value serving experiment:
// a population of flow-level TCP connections (one per modeled client,
// folded into a few aggregated hosts) issues Zipf-popular GET/PUT
// requests against the kv AFU running on every FLD core of one server.
type KVServeParams struct {
	// Connections is the modeled connection population (>= 1e5 for the
	// paper-scale point). Each connection owns a TCP 4-tuple, a private
	// arrival stream and a sequence cursor; only the fraction that ticks
	// inside the window actually sends (open-loop, flow-level).
	Connections int
	// Hosts is the number of aggregated-client hosts the population is
	// folded into.
	Hosts int
	// FLDCores is the number of kv AFU instances behind the server's RSS
	// TIR; a connection's requests stay core-affine (4-tuple RSS).
	FLDCores int
	// KeyBytes / ValueBytes size the RPC fields; every request frame is
	// tcp.FrameOverhead + rpc.HeaderLen + KeyBytes + ValueBytes on the
	// wire (GETs carry the value field as padding so request size is
	// uniform).
	KeyBytes, ValueBytes int
	// Keys is the key-space size; ZipfS is the popularity skew exponent.
	Keys  int
	ZipfS float64
	// PutEvery makes every PutEvery-th request of a connection a PUT
	// (the first always is), the rest GETs.
	PutEvery int
	// OfferedGbps is the aggregate request-frame goodput offered by the
	// whole population.
	OfferedGbps float64
	// QueueFrames bounds the ToR switch's per-port output queues.
	QueueFrames int
	// Warmup, Window, Drain phase the measurement; only the window counts.
	Warmup, Window, Drain flexdriver.Duration
	// Seed drives every arrival and popularity stream.
	Seed int64
}

// DefaultKVServeParams returns the paper-scale point: 10^5 connections
// over 16 aggregated hosts offering 10 Gbit/s of 214 B requests into a
// 4-core server on 25 GbE.
func DefaultKVServeParams(window flexdriver.Duration) KVServeParams {
	return KVServeParams{
		Connections: 100000,
		Hosts:       16,
		FLDCores:    4,
		KeyBytes:    16,
		ValueBytes:  128,
		Keys:        1 << 16,
		ZipfS:       1.07,
		PutEvery:    8,
		OfferedGbps: 10,
		QueueFrames: 256,
		Warmup:      100 * flexdriver.Microsecond,
		Window:      window,
		Drain:       150 * flexdriver.Microsecond,
		Seed:        1,
	}
}

// ReqBytes returns the uniform request frame size on the wire.
func (p KVServeParams) ReqBytes() int {
	return tcp.FrameOverhead + rpc.HeaderLen + p.KeyBytes + p.ValueBytes
}

// kvPoint is one run's measurements.
type kvPoint struct {
	servedTotals
	p50us, p99us, p999us float64
	activeConns          int   // distinct connections the server saw
	served               int64 // AFU-parsed requests (whole run)
	hits, misses         int64
	stored               int64
	replyBytes           int64 // whole-run response bytes (mean-size estimate)
	responses            int64
	dropped, malformed   int64
}

// Frame offsets of the mutable request fields: the TCP sequence number,
// the RPC op byte, the RPC correlation ID and the key field. The IPv4
// header checksum only covers the L3 header, so stamping L4 bytes keeps
// the frame parseable.
const (
	kvSeqOff = 38                    // Eth(14) + IPv4(20) + seq at TCP+4
	kvOpOff  = tcp.FrameOverhead + 1 // rpc op byte
	kvIDOff  = tcp.FrameOverhead + rpc.IDOffset
	kvKeyOff = tcp.FrameOverhead + rpc.HeaderLen
)

// runKVServePoint runs the serving topology once: FLDCores kv AFUs
// behind an RSS TIR, like the cluster echo, and Connections flow-level
// TCP connections folded into Hosts aggregated sources. Connection gi
// owns arrival stream Seed*1000+gi (splitmix state — 10^5 full
// rand.Rand instances would cost half a gigabyte), the
// 4-tuple (hostIP, 2048+local, srv, 7777) and a sequence cursor; the
// host-level ordinal rides in the RPC correlation ID for RTT; popularity
// is a per-host Zipf stream.
func runKVServePoint(p KVServeParams) kvPoint {
	pt := &servedPoint{Rig: rig.New(flexdriver.WithDriver(genDriverParams()))}
	pt.SwitchQueueFrames(p.QueueFrames)
	var kvs []*kv.AFU
	pt.srv = pt.AddServer("server", p.FLDCores, func(f *flexdriver.FLD) { kvs = append(kvs, kv.New(f)) })
	pt.srv.Steer(flexdriver.Rule{})

	reqLen := rpc.HeaderLen + p.KeyBytes + p.ValueBytes
	// conns[gi] counts connection gi's requests, written by its owning host.
	conns := make([]uint32, p.Connections)
	perConnBps := p.OfferedGbps * 1e9 / float64(p.Connections)
	mean := flexdriver.Duration(float64(p.ReqBytes()*8) / perConnBps *
		float64(flexdriver.Second))
	for hi, span := range rig.Split(p.Connections, min(p.Hosts, p.Connections)) {
		first := span.First
		zipf := sim.NewLightRand(p.Seed*77+int64(hi)).Zipf(p.ZipfS, 1, uint64(p.Keys-1))
		pt.addAggregated(hi, kvIDOff, flexdriver.AggregatedClientsConfig{
			Clients:    span.N,
			StreamSeed: p.Seed*1000 + int64(first),
			Stop:       p.Warmup + p.Window,
			Rand:       sim.NewLightRand,
			Setup: func(h *flexdriver.Host, ci int, _ *sim.Rand) flexdriver.ClientSetup {
				// One flow per connection: a full TCP request frame
				// template; OnSend stamps the per-request fields.
				seg := tcp.Segment{
					SrcPort: uint16(2048 + ci), DstPort: 7777,
					Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1,
				}
				req := rpc.Frame{Op: rpc.OpPut,
					Key: make([]byte, p.KeyBytes), Val: make([]byte, p.ValueBytes)}
				for i := range req.Val {
					req.Val[i] = byte(first + ci)
				}
				frame := tcp.BuildFrame(h.NIC.MAC, pt.srv.NIC.MAC, h.NIC.IP, pt.srv.NIC.IP,
					seg, req.Marshal(nil))
				return flexdriver.ClientSetup{Flows: [][]byte{frame}, Mean: mean}
			},
			OnSend: func(ci int, f []byte) {
				// Connection-level stream position and op mix.
				reqs := conns[first+ci]
				conns[first+ci]++
				binary.BigEndian.PutUint32(f[kvSeqOff:], reqs*uint32(reqLen))
				f[kvOpOff] = rpc.OpGet
				if int(reqs)%p.PutEvery == 0 {
					f[kvOpOff] = rpc.OpPut
				}
				// Zipf-popular key, drawn on the host's popularity stream.
				rig.Stamp(f, kvKeyOff, int64(zipf()))
			},
		})
	}

	kp := kvPoint{servedTotals: pt.measure(p.Warmup, p.Window, p.Drain)}
	kp.p50us, kp.p99us, kp.p999us = kp.lat.Median(), kp.lat.Percentile(99), kp.lat.Percentile(99.9)
	for _, a := range kvs {
		kp.activeConns += a.ConnCount()
		kp.served += a.Requests
		kp.hits += a.Hits
		kp.misses += a.Misses
		kp.stored += a.Stored
		kp.replyBytes += a.ReplyBytes
		kp.responses += a.Responses
		kp.dropped += a.Dropped
		kp.malformed += a.Malformed
	}
	return kp
}

// KVServe runs the TCP-offload key-value serving experiment: 10^5
// flow-level connections issue Zipf GET/PUT requests through the TCP +
// RPC framing layers against the per-core kv AFUs, and the measurement
// is checked against the analytic serving model and the FPGA SRAM
// budget:
//
//   - latency: p999 stays under perfmodel.KVServeModel.P999BoundUs at
//     the offered utilization;
//   - goodput: the served response rate tracks the offered request rate
//     and never exceeds the model ceiling;
//   - memory: the Connections-sized connection table plus the FLD
//     driver structures fit the XCKU15P on-chip budget;
//   - determinism: a second run replays the telemetry hash
//     byte-identically.
func KVServe(p KVServeParams) *Result {
	r := &Result{ID: "kvserve",
		Title: fmt.Sprintf("TCP offload + RPC serving: %d connections vs %d kv cores",
			p.Connections, p.FLDCores)}
	r.Columns = []string{"conns", "active", "req/s (win)", "resp Gb/s", "p50 us", "p99 us", "p999 us", "hit rate"}

	pt := runKVServePoint(p)

	win := p.Window.Seconds()
	reqRate := float64(pt.sent) / win
	respGbps := float64(pt.rxB) * 8 / win / 1e9
	hitRate := 0.0
	if pt.hits+pt.misses > 0 {
		hitRate = float64(pt.hits) / float64(pt.hits+pt.misses)
	}
	r.AddRow(d0(p.Connections), d0(pt.activeConns), f1(reqRate), f2(respGbps),
		f1(pt.p50us), f1(pt.p99us), f1(pt.p999us), f2(hitRate))

	// The analytic model uses the measured mean response size (GET hits
	// carry the value, PUTs and misses only the header frame).
	respMean := p.ReqBytes()
	if pt.responses > 0 {
		respMean = int(pt.replyBytes / pt.responses)
	}
	m := perfmodel.DefaultKVServeModel(25, p.ReqBytes(), respMean)
	offeredRps := p.OfferedGbps * 1e9 / float64(p.ReqBytes()*8)
	rho := offeredRps / m.RequestRate()

	r.Check("population runs at paper scale", 1e5, float64(p.Connections), "conns",
		p.Connections >= 1e5, fmt.Sprintf("%d active in the window", pt.activeConns))
	r.Check("served responses track offered requests", float64(pt.sent), float64(pt.rx),
		"responses", pt.rx >= int64(0.9*float64(pt.sent)) && pt.sent > 0,
		"open-loop window counts, >= 90%")
	r.Check("p999 latency under the analytic envelope", m.P999BoundUs(rho), pt.p999us, "us",
		pt.p999us > 0 && pt.p999us <= m.P999BoundUs(rho),
		fmt.Sprintf("M/D/1 bound at rho=%.2f", rho))
	bound := m.OfferedGoodputGbps(reqRate)
	r.Check("response goodput within the model bound", bound, respGbps, "Gbit/s",
		respGbps <= bound*1.02 && respGbps >= 0.85*bound,
		"offered-rate ceiling from the PCIe/Ethernet model")
	total, fits := memmodel.PaperParams().ConnTableFits(p.Connections)
	r.Check("connection table fits FLD SRAM", float64(memmodel.XCKU15PBytes),
		float64(total), "bytes", fits,
		fmt.Sprintf("%d B/conn cuckoo table + driver structures", memmodel.ConnEntryBytes))
	r.Check("Zipf popularity produces GET hits", 0.2, hitRate, "frac",
		hitRate > 0.2 && pt.stored > 0, "per-core stores, core-affine connections")
	r.Check("server parsed every request", 0, float64(pt.malformed), "frames",
		pt.malformed == 0, "")
	r.Check("no credit-stall response drops", 0, float64(pt.dropped), "frames",
		pt.dropped == 0, "")

	hash := pt.snap.Hash()
	replayOK := runKVServePoint(p).snap.Hash() == hash
	r.Check("telemetry hash identical on replay", 1, b2f(replayOK), "",
		replayOK, fmt.Sprintf("two runs, hash %s...", hash[:12]))
	r.Check("sim engine quiesced", 0, float64(pt.pending), "events", pt.pending == 0, "")
	return r
}
