package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/echo"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
	"flexdriver/internal/stats"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/trace"
)

// genDriverParams models a multi-queue line-rate load generator (testpmd
// with several cores / TRex): negligible per-packet software cost.
func genDriverParams() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 4 * flexdriver.Nanosecond, TxCost: 4 * flexdriver.Nanosecond,
		DoorbellBatch: 8,
		SignalEvery:   8,
	}
}

// withGen puts the load-generator driver model under opts.
func withGen(opts []flexdriver.Option) []flexdriver.Option {
	return append([]flexdriver.Option{flexdriver.WithDriver(genDriverParams())}, opts...)
}

// latencyDriverParams models a single pinned testpmd core measuring
// round trips: realistic per-op cost, immediate doorbells, light OS
// jitter on the measurement host. It and serverCPUParams replace a built
// driver's Prm, so they carry no seed: the jitter draws from the stream
// the driver was built with, genDriverParams' seed 0.
func latencyDriverParams() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 55 * flexdriver.Nanosecond, TxCost: 45 * flexdriver.Nanosecond,
		DoorbellBatch: 1,
		SignalEvery:   1,
		JitterProb:    5e-5,
		JitterMin:     1 * flexdriver.Microsecond,
		JitterMax:     3 * flexdriver.Microsecond,
		JitterAlpha:   2.0,
	}
}

// ioFwdParams models a testpmd io-forward core (~22.7 Mpps), the Fig. 7b
// CPU-driver bandwidth baseline.
func ioFwdParams() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 24 * flexdriver.Nanosecond, TxCost: 20 * flexdriver.Nanosecond,
		DoorbellBatch: 8,
		SignalEvery:   8,
	}
}

// fwdCoreParams models the §8.1.1 mixed-trace forwarding core: 104 ns per
// packet = 9.6 Mpps.
func fwdCoreParams() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 58 * flexdriver.Nanosecond, TxCost: 46 * flexdriver.Nanosecond,
		DoorbellBatch: 8,
		SignalEvery:   8,
	}
}

// serverCPUParams models the CPU echo server of Table 6: a poll-mode
// driver core that shares its host with an OS (the 99.9th-percentile
// tail's origin).
func serverCPUParams() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 55 * flexdriver.Nanosecond, TxCost: 45 * flexdriver.Nanosecond,
		DoorbellBatch: 1,
		SignalEvery:   1,
		JitterProb:    7e-4,
		JitterMin:     4 * flexdriver.Microsecond,
		JitterMax:     60 * flexdriver.Microsecond,
		JitterAlpha:   2.2,
	}
}

func buildFrame(size int, sport, dport uint16) []byte {
	size = max(size, 46)
	payload := make([]byte, size-netpkt.EthHeaderLen-netpkt.IPv4HeaderLen-netpkt.UDPHeaderLen)
	return netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(1)},
		netpkt.IPFrom(1), netpkt.IPFrom(2), sport, dport, payload)
}

// fldeRemoteBed wires the remote FLD-E echo topology and returns the
// client port. opts (e.g. WithTelemetry) apply on top of the
// load-generator driver model.
func fldeRemoteBed(opts ...flexdriver.Option) (*flexdriver.RemotePair, *swdriver.EthPort) {
	rp := flexdriver.NewRemotePair(withGen(opts)...)
	srv := rp.Server
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})
	echo.New(srv.FLD)

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	return rp, port
}

// fldeLocalBed wires the single-node (hairpin) FLD-E topology.
func fldeLocalBed(opts ...flexdriver.Option) (*flexdriver.Innova, *swdriver.EthPort) {
	inn := flexdriver.NewLocalInnova(withGen(opts)...)
	inn.RT.CreateEthTxQueue(0, nil)
	echo.New(inn.FLD)
	port := inn.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	esw := inn.NIC.ESwitch()
	fldVP, hostVP := inn.RT.VPort(), port.VPort()
	esw.ClearTable(hostVP.EgressTable)
	esw.AddRule(hostVP.EgressTable, flexdriver.Rule{Action: flexdriver.Action{ToVPort: &fldVP.ID}})
	esw.AddRule(fldVP.IngressTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: inn.RT.RQ()}})
	esw.AddRule(fldVP.EgressTable, flexdriver.Rule{Action: flexdriver.Action{ToVPort: &hostVP.ID}})
	esw.AddRule(hostVP.IngressTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	inn.RT.Start()
	return inn, port
}

// cpuRemoteBed wires a remote echo served by the *CPU* driver on the
// server (the Fig. 7b / Table 6 baseline).
func cpuRemoteBed(serverDrv flexdriver.DriverParams, opts ...flexdriver.Option) (*flexdriver.RemotePair, *swdriver.EthPort) {
	rp := flexdriver.NewRemotePair(withGen(opts)...)
	// Replace server driver cost model.
	rp.Server.Drv.Prm = serverDrv
	srvPort := rp.Server.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Server.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srvPort.RQ()}})
	srvPort.OnReceive = func(frame []byte, md swdriver.RxMeta) { srvPort.Send(frame) }

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	return rp, port
}

// The back-to-back goodput points' phasing: 150 µs of warm-up (defrag
// takes 200 µs, the CPU cipher 20 µs), then the window, then 100 µs of
// drain, which the telemetry experiment's snapshot reads.
const pointWarmup, pointDrain = 150 * flexdriver.Microsecond, 100 * flexdriver.Microsecond

// period is the send interval of size-byte frames offered at rate Gbit/s.
func period(size, rate float64) flexdriver.Duration {
	return flexdriver.Duration(size * 8 / (rate * 1e9) * float64(flexdriver.Second))
}

// gbps is bytes over d in Gbit/s.
func gbps(bytes int64, d flexdriver.Duration) float64 { return float64(bytes) * 8 / d.Seconds() / 1e9 }

// goodput offers send open-loop on eng from t = 0, one call per size
// bytes at offeredGbps, phases the run through rig.Window (the source
// stops when the drain ends) and returns the Gbit/s by which tally, a
// running byte count, advanced inside the window.
func goodput(eng *flexdriver.Engine, warmup, window flexdriver.Duration, size, offeredGbps float64, send func(), tally func() int64) float64 {
	rig.OpenLoop(eng, 0, warmup+window+pointDrain, 1, rig.Every(period(size, offeredGbps)), send)
	var in int64
	rig.Window(eng, warmup, window, pointDrain, func(bool) { in = tally() - in })
	return gbps(in, window)
}

// measureEcho offers an offered-rate stream of size-byte frames to the
// echo path behind the client port and returns the achieved receive
// goodput in Gbit/s.
func measureEcho(eng *flexdriver.Engine, port *swdriver.EthPort, size int, offeredGbps float64, window flexdriver.Duration) float64 {
	frame := buildFrame(size, 4000, 7777)
	var rxBytes int64
	port.OnReceive = func(fr []byte, _ swdriver.RxMeta) { rxBytes += int64(len(fr)) }
	return goodput(eng, pointWarmup, window, float64(len(frame)), offeredGbps,
		func() { port.Send(frame) }, func() int64 { return rxBytes })
}

// BWPoint is one Figure 7b sample.
type BWPoint struct {
	Size                      int
	OfferedGbps, AchievedGbps float64
	ModelGbps                 float64
	MeetsModel                bool
}

// EchoMode selects the Figure 7b configuration.
type EchoMode int

// Echo configurations.
const (
	FLDERemote EchoMode = iota
	FLDELocal
	FLDRRemote
	CPURemote
)

func (m EchoMode) String() string {
	switch m {
	case FLDERemote:
		return "FLD-E remote"
	case FLDELocal:
		return "FLD-E local"
	case FLDRRemote:
		return "FLD-R remote"
	case CPURemote:
		return "CPU remote"
	}
	return "?"
}

// echoModelFor returns the analytic expectation for the mode.
func echoModelFor(mode EchoMode, size int) float64 {
	switch mode {
	case FLDERemote, FLDELocal:
		m := perfmodel.DefaultEchoModel(25)
		m.PpsCap = float64(sim.Second) / float64(m.FLD.PacketInterval())
		if mode == FLDELocal {
			// No Ethernet segment: bounded by the Gen3 x8 PCIe links
			// alone (the paper's "50 Gbps PCIe" line in Figure 7a).
			m.EthRateGbps = 1000
		}
		return m.Goodput(size)
	case FLDRRemote:
		// RoCE framing on the 25G wire, plus the coalesced ACK share.
		np, frame := nic.DefaultParams(), nic.RoCEOverhead+nic.EthWireOverhead
		wire := size + (size+np.RoCEMTU-1)/np.RoCEMTU*frame + frame/np.AckCoalesce
		return 25 * float64(size) / float64(wire)
	case CPURemote:
		p := ioFwdParams()
		cpu := float64(sim.Second) / float64(p.RxCost+p.TxCost) * float64(size) * 8 / 1e9
		return min(cpu, perfmodel.EthernetGoodput(25, size))
	}
	return 0
}

// EchoBandwidth reproduces one Figure 7b series. opts (WithNIC,
// WithTelemetry, …) apply to every mode's bed on top of its driver model.
func EchoBandwidth(mode EchoMode, sizes []int, window flexdriver.Duration, opts ...flexdriver.Option) []BWPoint {
	var out []BWPoint
	for _, size := range sizes {
		offered := 26.5 // just above the 25G line
		if mode == FLDELocal {
			// Local runs have no Ethernet segment to throttle the
			// generator, and overdriving the PCIe fabric collapses
			// throughput (ingress crowds out egress reads); measure at
			// 97% of the model like a sustained-rate sweep would.
			offered = 0.97 * echoModelFor(mode, size)
		}
		var achieved float64
		switch mode {
		case FLDERemote:
			rp, port := fldeRemoteBed(opts...)
			achieved = measureEcho(rp.Engine(), port, size, offered, window)
		case FLDELocal:
			inn, port := fldeLocalBed(opts...)
			achieved = measureEcho(inn.Engine(), port, size, offered, window)
		case FLDRRemote:
			achieved = fldrRemoteBandwidth(size, offered, window, opts)
		case CPURemote:
			rp, port := cpuRemoteBed(ioFwdParams(), opts...)
			achieved = measureEcho(rp.Engine(), port, size, offered, window)
		}
		model := echoModelFor(mode, size)
		// "Meets" = within 10% of the analytic expectation, the same
		// reading as the paper's "meets the expected performance".
		out = append(out, BWPoint{
			Size: size, OfferedGbps: offered, AchievedGbps: achieved,
			ModelGbps: model, MeetsModel: achieved >= 0.90*model,
		})
	}
	return out
}

// fldrRemoteBandwidth runs the FLD-R echo at one message size.
func fldrRemoteBandwidth(size int, offeredGbps float64, window flexdriver.Duration, opts []flexdriver.Option) float64 {
	rp := flexdriver.NewRemotePair(withGen(opts)...)
	ep := fldrEchoBed(rp.Server, rp.Client.Drv, 512, 128)
	var rxBytes int64
	ep.OnMessage = func(data []byte) { rxBytes += int64(len(data)) }
	msg := make([]byte, size)
	return goodput(rp.Engine(), pointWarmup, window, float64(size), offeredGbps,
		func() { ep.Send(msg) }, func() int64 { return rxBytes })
}

// fldrEchoBed starts an FLD-R "echo" service on srv — a per-QP
// reassembling echo handler behind an RServer — and connects a client
// endpoint to it from drv.
func fldrEchoBed(srv *flexdriver.Innova, drv *flexdriver.Driver, sendEntries, recvEntries int) *flexdriver.RDMAEndpoint {
	rsrv := flexdriver.NewRServer(srv.RT)
	rsrv.Listen("echo")
	srv.RT.Start()
	reasm := map[uint32][]byte{}
	srv.FLD.SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
		buf := append(reasm[md.Tag], data...)
		if !md.Last {
			reasm[md.Tag] = buf
			return
		}
		delete(reasm, md.Tag)
		srv.FLD.Send(rsrv.QueueFor(md.Tag), buf, flexdriver.Metadata{})
	}))
	ep, err := flexdriver.ConnectRDMA(drv, rsrv, "echo",
		flexdriver.RDMAConfig{SendEntries: sendEntries, RecvEntries: recvEntries})
	if err != nil {
		panic(err)
	}
	return ep
}

// Fig7b runs the full Figure 7b reproduction.
func Fig7b(sizes []int, window flexdriver.Duration) *Result {
	r := &Result{ID: "fig7b", Title: "Echo bandwidth vs packet size (FLD-E/FLD-R local+remote vs CPU)"}
	r.Columns = []string{"mode", "size", "model Gbps", "achieved Gbps", "meets"}
	type claim struct {
		mode     EchoMode
		meetFrom int
	}
	// Paper: remote FLD-E meets expectation from 128 B, local from
	// 256 B; FLD-R remote meets line rate from 512 B.
	claims := []claim{{FLDERemote, 128}, {FLDELocal, 256}, {FLDRRemote, 512}, {CPURemote, 1 << 20}}
	for _, c := range claims {
		pts := EchoBandwidth(c.mode, sizes, window)
		allAbove := true
		for _, p := range pts {
			r.AddRow(c.mode.String(), d0(p.Size), f2(p.ModelGbps), f2(p.AchievedGbps),
				fmt.Sprintf("%v", p.MeetsModel))
			if p.Size >= c.meetFrom && !p.MeetsModel {
				allAbove = false
			}
		}
		if c.meetFrom < 1<<20 {
			r.Check(fmt.Sprintf("%s meets model for sizes >= %d", c.mode, c.meetFrom),
				1, b2f(allAbove), "", allAbove, "")
		}
	}
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// MixedTrace reproduces the §8.1.1 mixed-size forwarding comparison:
// forwarding an IMC-2010-like stream, FLD-E is line-bound at 12.7 Mpps
// while a single CPU forwarding core saturates at 9.6 Mpps.
func MixedTrace(window flexdriver.Duration) *Result {
	r := &Result{ID: "mixed-trace", Title: "IMC-2010 mixed-size forwarding (Mpps)"}
	r.Columns = []string{"engine", "Mpps", "Gbps"}
	dist := trace.IMC2010()

	run := func(rp *flexdriver.RemotePair, port *swdriver.EthPort) (float64, float64) {
		// Offer slightly above line rate of mixed traffic.
		rng := sim.NewRand(77)
		var rxPkts, rxBytes, pkts int64
		port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			rxPkts++
			rxBytes += int64(len(fr))
		}
		g := goodput(rp.Engine(), pointWarmup, window, dist.Mean(), 26.5,
			func() { port.Send(buildFrame(dist.Sample(rng), 4000, 7777)) },
			func() int64 {
				pkts = rxPkts - pkts // the window's count once both edges read it
				return rxBytes
			})
		return float64(pkts) / window.Seconds() / 1e6, g
	}

	fldMpps, fldGbps := run(fldeRemoteBed())
	cpuMpps, cpuGbps := run(cpuRemoteBed(fwdCoreParams()))
	r.AddRow("FLD-E", f2(fldMpps), f2(fldGbps))
	r.AddRow("CPU core", f2(cpuMpps), f2(cpuGbps))
	r.Check("FLD-E mixed Mpps", 12.7, fldMpps, "Mpps", within(fldMpps, 12.7, 0.25), "line-bound")
	r.Check("CPU mixed Mpps", 9.6, cpuMpps, "Mpps", within(cpuMpps, 9.6, 0.25), "pps-bound core")
	r.Check("FLD faster than CPU", 12.7/9.6, fldMpps/cpuMpps, "x", fldMpps > cpuMpps, "")
	return r
}

// Table6 reproduces the 64 B echo round-trip latency percentiles.
func Table6(samples int) *Result {
	r := &Result{ID: "table6", Title: "64 B echo RTT percentiles (us)"}
	r.Columns = []string{"path", "mean", "median", "p99", "p99.9"}

	rp, port := fldeRemoteBed()
	flde := closedLoopRTT(rp, port, samples)
	rp, port = cpuRemoteBed(serverCPUParams())
	cpu := closedLoopRTT(rp, port, samples)
	r.AddRow("FLD-E", f2(flde.Mean), f2(flde.Median), f2(flde.P99), f2(flde.P999))
	r.AddRow("CPU", f2(cpu.Mean), f2(cpu.Median), f2(cpu.P99), f2(cpu.P999))

	r.Check("FLD-E mean", 2.78, flde.Mean, "us", within(flde.Mean, 2.78, 0.35), "")
	r.Check("CPU mean", 2.36, cpu.Mean, "us", within(cpu.Mean, 2.36, 0.35), "")
	meanRatio := flde.Mean / cpu.Mean
	r.Check("FLD-E/CPU mean ratio", 1.17, meanRatio, "x", within(meanRatio, 1.17, 0.15),
		"FLD slightly slower on average")
	tailRatio := cpu.P999 / flde.P999
	r.Check("CPU/FLD-E p99.9 ratio", 2.5, tailRatio, "x", tailRatio > 1.5,
		"no OS interference on FLD")
	return r
}

// closedLoopRTT runs a one-in-flight 64 B echo from the pair's client
// port, driven by the latency-measurement core model, and summarizes
// RTTs in us past 200 warm-up round trips.
func closedLoopRTT(rp *flexdriver.RemotePair, port *swdriver.EthPort, samples int) stats.Summary {
	rp.Client.Drv.Prm = latencyDriverParams()
	frame := buildFrame(64, 5000, 6000)
	pp := &rig.PingPong{Eng: rp.Engine(), Warm: 200, N: samples, Send: func() { port.Send(frame) }}
	port.OnReceive = func([]byte, swdriver.RxMeta) { pp.Reply() }
	return pp.Run().Summarize()
}

// Fig7c measures FLD-R 1 KiB message latency under increasing load
// (remote), reproducing the queueing knee near ~82% of capacity.
func Fig7c(fractions []float64, perPoint int) *Result {
	r := &Result{ID: "fig7c", Title: "FLD-R 1 KiB latency vs load (remote)"}
	r.Columns = []string{"offered Gbps", "achieved Gbps", "median us", "p99 us"}
	const size = 1024
	capacity := echoModelFor(FLDRRemote, size)

	var meds []float64
	peak, mono := 0.0, true
	for _, frac := range fractions {
		offered := frac * capacity
		med, p99, achieved := fldrLatencyAtLoad(size, offered, perPoint)
		r.AddRow(f2(offered), f2(achieved), f2(med), f2(p99))
		if n := len(meds); n > 0 && med < meds[n-1]-0.3 {
			mono = false
		}
		meds = append(meds, med)
		peak = max(peak, achieved)
	}
	// The simulated base RTT is lower than the published 10.6 us (the
	// prototype's FPGA clock-domain crossings and PCIe switch internals
	// are not modeled); the claims under test are the curve's shape.
	base := meds[0]
	r.Check("low-load median RTT", 10.6, base, "us", base > 3 && base < 12,
		"absolute base depends on unmodeled FPGA internals")
	// The paper also reports the local topology's low-load latency
	// (9.4 us vs 10.6 us remote): loopback QPs on one Innova node.
	localMed := fldrLocalLowLoadLatency(size, perPoint/4)
	r.AddRow("(local, low load)", "-", f2(localMed), "-")
	r.Check("local < remote at low load", 9.4/10.6, localMed/base,
		"ratio", localMed < base, "no wire hop on the local path")
	r.Check("latency grows with load", 1, b2f(mono), "", mono, "")
	// Knee: the overloaded point's median is several times the base.
	last := meds[len(meds)-1]
	r.Check("queueing knee near saturation", 3, last/base, "x", last/base > 2, "")
	// Throughput saturates below the model's expectation, like the
	// paper's ~82% bottleneck observation.
	sat := peak / capacity
	r.Check("saturation fraction of expected BW", 0.82, sat, "", sat > 0.75 && sat <= 1.0, "")
	return r
}

// underLoad offers n size-byte requests on rp as a Poisson stream at
// offeredGbps drawn from seed, the first now, runs rp until idle and
// returns lat's median and p99 with the Gbit/s bytes tallied over the
// whole run.
func underLoad(rp *flexdriver.RemotePair, seed int64, size int, offeredGbps float64, n int,
	send func(), lat *stats.Sample, bytes *int64) (medianUs, p99Us, achievedGbps float64) {
	t0 := rp.Engine().Now()
	rig.OpenLoopN(rp.Engine(), n, rig.Poisson(sim.NewRand(seed), period(float64(size), offeredGbps)), send)
	rp.Run()
	return lat.Median(), lat.Percentile(99), gbps(*bytes, max(rp.Engine().Now()-t0, 1))
}

func fldrLatencyAtLoad(size int, offeredGbps float64, samples int) (medianUs, p99Us, achievedGbps float64) {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()))
	ep := fldrEchoBed(rp.Server, rp.Client.Drv, 512, 128)
	var lat stats.Sample
	var sendTimes []flexdriver.Time
	var rxBytes int64
	ep.OnMessage = func(data []byte) {
		// Echoes return in order: match FIFO.
		lat.Add((rp.Engine().Now() - sendTimes[lat.N()]).Microseconds())
		rxBytes += int64(len(data))
	}
	msg := make([]byte, size)
	return underLoad(rp, 5, size, offeredGbps, samples, func() {
		sendTimes = append(sendTimes, rp.Engine().Now())
		ep.Send(msg)
	}, &lat, &rxBytes)
}

// fldrLocalLowLoadLatency measures the single-node FLD-R echo RTT: the
// client endpoint lives on the Innova host and its QP loops back through
// the eSwitch to the FLD QP (the paper's local setup, 9.4 us median).
func fldrLocalLowLoadLatency(size, samples int) float64 {
	inn := flexdriver.NewLocalInnova(flexdriver.WithDriver(genDriverParams()))
	ep := fldrEchoBed(inn, inn.Drv, 64, 64)
	msg := make([]byte, size)
	pp := &rig.PingPong{Eng: inn.Engine(), N: samples, Send: func() { ep.Send(msg) }}
	ep.OnMessage = func([]byte) { pp.Reply() }
	return pp.Run().Median()
}
