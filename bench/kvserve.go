package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// Frame offsets of the per-request fields a kv request stamps: the TCP
// sequence number, the RPC op byte, the RPC correlation ID and the key.
// The IPv4 checksum covers only the L3 header, so stamping L4 bytes
// keeps the frame parseable.
const (
	kvSeqOff = 38 // Eth(14) + IPv4(20) + seq at TCP+4
	kvOpOff  = tcp.FrameOverhead + 1
	kvIDOff  = tcp.FrameOverhead + rpc.IDOffset
	kvKeyOff = tcp.FrameOverhead + rpc.HeaderLen
)

// kvHost is one aggregated host's bookkeeping, private to its shard.
type kvHost struct {
	eng    *sim.Engine
	sendAt []sim.Time
	lat    []float32
	sent   int64
	resp   int64
	rxB    int64
}

// runKVServe is kvserve100k: a population of flow-level TCP connections
// (one per modelled client, folded into 16 AggregatedClients hosts)
// issues Zipf-popular GET/PUT requests of 214 B at an aggregate
// 10 Gbit/s against the kv AFU on each of 4 FLD cores. Only the
// connections whose arrival stream ticks inside the window send, but
// every one of them is constructed — this is the set-up-heavy workload.
func runKVServe(cfg runConfig, m *meter) outcome {
	const (
		hosts       = 16
		cores       = 4
		keyBytes    = 16
		valBytes    = 128
		keys        = 1 << 16
		zipfS       = 1.07
		putEvery    = 8
		offeredGbps = 10.0
		warmup      = 100 * sim.Microsecond
		drain       = 150 * sim.Microsecond
	)
	conns := 100000 // the population shrinks only for the tiny test scale
	if cfg.Scale < 1 {
		conns = int(100000 * cfg.Scale)
		if conns < 2000 {
			conns = 2000
		}
	}
	window := scaled(10*sim.Millisecond, cfg.Scale, 100*sim.Microsecond)
	reqLen := rpc.HeaderLen + keyBytes + valBytes
	reqBytes := tcp.FrameOverhead + reqLen

	m.begin("setup.new_cluster")
	reg := flexdriver.NewRegistry()
	cl := flexdriver.NewCluster(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(reg),
		flexdriver.WithWorkers(cfg.Workers),
		flexdriver.WithColocated(cfg.Colocate),
	).SwitchQueueFrames(256)
	m.end()

	m.begin("setup.add_server")
	var kvs []*kv.AFU
	srv := buildEchoServer(cl, cores, func(rt *flexdriver.Runtime) {
		kvs = append(kvs, kv.New(rt.FLD()))
	})
	m.end()

	// Connection gi owns arrival stream Seed*1000+gi (splitmix state:
	// 10^5 full rand.Rand instances would cost half a gigabyte), the
	// 4-tuple (hostIP, 2048+local, srv, 7777), a sequence cursor and a
	// request ordinal; popularity is a per-host Zipf stream.
	reqs := make([]uint32, conns) // per-connection request count; index owned by its host's shard
	stop := warmup + window
	mean := sim.Duration(float64(reqBytes*8) / (offeredGbps * 1e9 / float64(conns)) * float64(sim.Second))
	perHost := int(offeredGbps*1e9/float64(reqBytes*8)*stop.Seconds()) / hosts
	hs := make([]*kvHost, 0, hosts)
	m.begin("setup.add_clients")
	for hi, base := 0, 0; hi < hosts; hi++ {
		k := conns / hosts
		if hi < conns%hosts {
			k++
		}
		h := &kvHost{
			sendAt: make([]sim.Time, 0, perHost+perHost/4+256),
			lat:    make([]float32, 0, perHost+perHost/4+256),
		}
		b := base
		zipf := sim.NewLightRand(cfg.Seed*77+int64(hi)).Zipf(zipfS, 1, keys-1)
		src := cl.AddAggregatedClients(fmt.Sprintf("client%d", hi), flexdriver.AggregatedClientsConfig{
			Clients:    k,
			StreamSeed: cfg.Seed*1000 + int64(b),
			Stop:       stop,
			Rand:       sim.NewLightRand,
			Setup: func(hst *flexdriver.Host, ci int, _ *sim.Rand) flexdriver.ClientSetup {
				// One flow per connection: a full request-frame template;
				// OnSend stamps the per-request fields into the copy the
				// source hands it.
				seg := tcp.Segment{SrcPort: uint16(2048 + ci), DstPort: 7777,
					Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
				req := rpc.Frame{Op: rpc.OpPut, Key: make([]byte, keyBytes), Val: make([]byte, valBytes)}
				for i := range req.Val {
					req.Val[i] = byte(b + ci)
				}
				frame := tcp.BuildFrame(hst.NIC.MAC, srv.NIC.MAC, hst.NIC.IP, srv.NIC.IP,
					seg, req.Marshal(nil))
				return flexdriver.ClientSetup{Flows: [][]byte{frame}, Mean: mean}
			},
			OnSend: func(ci int, f []byte) {
				t := m.genEnter()
				stamp(f, kvIDOff, h.sent) // host-level ordinal for RTT correlation
				h.sendAt = append(h.sendAt, h.eng.Now())
				h.sent++
				gi := b + ci
				n := reqs[gi]
				reqs[gi]++
				seq := n * uint32(reqLen)
				f[kvSeqOff], f[kvSeqOff+1] = byte(seq>>24), byte(seq>>16)
				f[kvSeqOff+2], f[kvSeqOff+3] = byte(seq>>8), byte(seq)
				if int(n)%putEvery == 0 {
					f[kvOpOff] = rpc.OpPut
				} else {
					f[kvOpOff] = rpc.OpGet
				}
				stamp(f, kvKeyOff, int64(zipf()))
				m.genSendExit(t)
			},
		})
		h.eng = src.Host.Engine()
		src.Port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			t := m.genEnter()
			if len(fr) >= kvIDOff+8 {
				if ord := unstamp(fr, kvIDOff); ord >= 0 && ord < int64(len(h.sendAt)) {
					h.resp++
					now := h.eng.Now()
					if now >= warmup && now < stop {
						h.rxB += int64(len(fr))
					}
					if at := h.sendAt[ord]; at >= warmup && at < stop {
						h.lat = append(h.lat, float32((now - at).Microseconds()))
					}
				}
			}
			m.genRxExit(t)
		}
		hs = append(hs, h)
		base += k
	}
	m.end()

	m.in("setup.rules", func() { programFDB(cl) }) // each host's steering rule came with AddAggregatedClients

	if !m.ready() {
		return outcome{}
	}
	runPhases(m, warmup, stop, stop+drain, cl.RunUntil, cl.Run)

	var o outcome
	m.begin("snapshot")
	snap := reg.Snapshot()
	settle(&o, snap, clusterNodes(cl), cl.Pending(), cl.Engines())
	m.end()

	var lat []float32
	var rxB int64
	for _, h := range hs {
		o.Attempted += h.sent
		o.Ops += h.resp
		rxB += h.rxB
		lat = append(lat, h.lat...)
	}
	var served, replyBytes, responses, dropped, malformed int64
	active := 0
	for _, a := range kvs {
		served += a.Requests
		replyBytes += a.ReplyBytes
		responses += a.Responses
		dropped += a.Dropped
		malformed += a.Malformed
		active += a.ConnCount()
	}
	o.Failed = o.Attempted - o.Ops
	o.check("afu_parsed_every_request", malformed == 0 && dropped == 0 && served == o.Attempted,
		"served %d of %d, %d malformed, %d credit-stall drops", served, o.Attempted, malformed, dropped)
	o.Model = rttModel(lat, rxB, window)
	o.Model["model.active_conns"] = float64(active)
	ledger(&o, snap, cl.Group().Stats(), "server")
	o.check("no_nic_drops", o.Counts["count.nic.drops"] == 0, "%v frames dropped at a NIC", o.Counts["count.nic.drops"])
	// The closed form takes the measured mean response size: GET hits
	// carry the value, PUTs and misses only the header frame.
	respMean := reqBytes
	if responses > 0 {
		respMean = int(replyBytes / responses)
	}
	toFPGA, toNIC := perfmodel.DefaultKVServeModel(25, reqBytes, respMean).PerRequestBytes()
	o.ModelErrPct = relErrPct(o.Counts["count.pcie.wire_bytes_per_op"], float64(toFPGA+toNIC))
	return o
}
