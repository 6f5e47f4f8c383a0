package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/echo"
	"flexdriver/internal/netpkt"
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

// latencyDriverParams models a single pinned testpmd core measuring
// round trips: realistic per-op cost, immediate doorbells, light OS
// jitter on the measurement host.
func latencyDriverParams() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 55 * flexdriver.Nanosecond, TxCost: 45 * flexdriver.Nanosecond,
		DoorbellBatch: 1,
		SignalEvery:   1,
		JitterProb:    5e-5,
		JitterMin:     1 * flexdriver.Microsecond,
		JitterMax:     3 * flexdriver.Microsecond,
		JitterAlpha:   2.0,
		Seed:          11,
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
		Seed:          23,
	}
}

func buildFrame(size int, sport, dport uint16) []byte {
	if size < 46 {
		size = 46
	}
	payload := make([]byte, size-netpkt.EthHeaderLen-netpkt.IPv4HeaderLen-netpkt.UDPHeaderLen)
	return netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(1)},
		netpkt.IPFrom(1), netpkt.IPFrom(2), sport, dport, payload)
}

// fldeRemoteBed wires the remote FLD-E echo topology and returns the
// client port plus the server's AFU. Extra options (e.g. WithTelemetry)
// are applied on top of the load-generator driver model.
func fldeRemoteBed(extra ...flexdriver.Option) (*flexdriver.RemotePair, *swdriver.EthPort, *echo.AFU) {
	opts := append([]flexdriver.Option{flexdriver.WithDriver(genDriverParams())}, extra...)
	rp := flexdriver.NewRemotePair(opts...)
	srv := rp.Server
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})
	afu := echo.New(srv.FLD)

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	return rp, port, afu
}

// fldeLocalBed wires the single-node (hairpin) FLD-E topology.
func fldeLocalBed(drv flexdriver.DriverParams) (*flexdriver.Innova, *swdriver.EthPort, *echo.AFU) {
	inn := flexdriver.NewLocalInnova(flexdriver.WithDriver(drv))
	inn.RT.CreateEthTxQueue(0, nil)
	afu := echo.New(inn.FLD)
	port := inn.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	esw := inn.NIC.ESwitch()
	fldVP, hostVP := inn.RT.VPort(), port.VPort()
	esw.ClearTable(hostVP.EgressTable)
	esw.AddRule(hostVP.EgressTable, flexdriver.Rule{Action: flexdriver.Action{ToVPort: &fldVP.ID}})
	esw.AddRule(fldVP.IngressTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: inn.RT.RQ()}})
	esw.AddRule(fldVP.EgressTable, flexdriver.Rule{Action: flexdriver.Action{ToVPort: &hostVP.ID}})
	esw.AddRule(hostVP.IngressTable, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	inn.RT.Start()
	return inn, port, afu
}

// cpuRemoteBed wires a remote echo served by the *CPU* driver on the
// server (the Fig. 7b / Table 6 baseline).
func cpuRemoteBed(serverDrv flexdriver.DriverParams) (*flexdriver.RemotePair, *swdriver.EthPort) {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()))
	// Replace server driver cost model.
	rp.Server.Drv.Prm = serverDrv
	srvPort := rp.Server.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Server.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srvPort.RQ()}})
	srvPort.OnReceive = func(frame []byte, md swdriver.RxMeta) { srvPort.Send(frame) }

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	return rp, port
}

// openLoopWindow is the phasing of every open-loop echo run: send fires
// every interval from time zero, *measuring is true for window after a
// 150 us warm-up, and the source stops 100 us of drain later.
func openLoopWindow(eng *flexdriver.Engine, interval, window flexdriver.Duration, measuring *bool, send func()) {
	const warmup, drain = 150 * flexdriver.Microsecond, 100 * flexdriver.Microsecond
	rig.OpenLoop(eng, 0, warmup+window+drain, 1, rig.Every(interval), send)
	rig.Window(eng, warmup, window, drain, measuring)
}

// measureEcho offers an offered-rate stream of size-byte frames to the
// echo path behind the client port and returns the achieved receive
// goodput in Gbit/s.
func measureEcho(eng *flexdriver.Engine, port *swdriver.EthPort, size int, offeredGbps float64, window flexdriver.Duration) float64 {
	frame := buildFrame(size, 4000, 7777)
	interval := flexdriver.Duration(float64(len(frame)*8) / (offeredGbps * 1e9) * float64(flexdriver.Second))
	var rxBytes int64
	measuring := false
	port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
		if measuring {
			rxBytes += int64(len(fr))
		}
	}
	openLoopWindow(eng, interval, window, &measuring, func() { port.Send(frame) })
	return float64(rxBytes) * 8 / window.Seconds() / 1e9
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
	case FLDERemote:
		m := perfmodel.DefaultEchoModel(25)
		m.PpsCap = 31.25e6
		return m.Goodput(size)
	case FLDELocal:
		// No Ethernet segment: bounded by the Gen3 x8 PCIe links alone
		// (the paper's "50 Gbps PCIe" line in Figure 7a).
		m := perfmodel.DefaultEchoModel(50)
		m.EthRateGbps = 1000 // disable the Ethernet term
		m.PpsCap = 31.25e6
		return m.Goodput(size)
	case FLDRRemote:
		// RoCE framing on the 25G wire, plus the coalesced ACK share.
		pkts := (size + 1023) / 1024
		wire := size + pkts*78 + 78/4
		return 25 * float64(size) / float64(wire)
	case CPURemote:
		eth := perfmodel.EthernetGoodput(25, size)
		cpu := 22.7e6 * float64(size) * 8 / 1e9 // io-forward-class core
		if cpu < eth {
			return cpu
		}
		return eth
	}
	return 0
}

// EchoBandwidth reproduces one Figure 7b series.
func EchoBandwidth(mode EchoMode, sizes []int, window flexdriver.Duration) []BWPoint {
	return EchoBandwidthWithNIC(mode, sizes, window, flexdriver.DefaultNICParams())
}

// EchoBandwidthWithNIC is EchoBandwidth with explicit NIC parameters,
// used by the ablation benchmarks (e.g. ACK coalescing on/off).
func EchoBandwidthWithNIC(mode EchoMode, sizes []int, window flexdriver.Duration, nicPrm flexdriver.NICParams) []BWPoint {
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
			rp, port, _ := fldeRemoteBed()
			achieved = measureEcho(rp.Engine(), port, size, offered, window)
		case FLDELocal:
			inn, port, _ := fldeLocalBed(genDriverParams())
			achieved = measureEcho(inn.Engine(), port, size, offered, window)
		case FLDRRemote:
			achieved = fldrRemoteBandwidth(size, offered, window, nicPrm)
		case CPURemote:
			rp, port := cpuRemoteBed(ioFwdParams())
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
func fldrRemoteBandwidth(size int, offeredGbps float64, window flexdriver.Duration, nicPrm flexdriver.NICParams) float64 {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()), flexdriver.WithNIC(nicPrm))
	ep := fldrEchoBed(rp.Server, rp.Client.Drv, 512, 128)
	var rxBytes int64
	measuring := false
	ep.OnMessage = func(data []byte) {
		if measuring {
			rxBytes += int64(len(data))
		}
	}
	msg := make([]byte, size)
	interval := flexdriver.Duration(float64(size*8) / (offeredGbps * 1e9) * float64(flexdriver.Second))
	openLoopWindow(rp.Engine(), interval, window, &measuring, func() { ep.Send(msg) })
	return float64(rxBytes) * 8 / window.Seconds() / 1e9
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

	run := func(rp *flexdriver.RemotePair, port *swdriver.EthPort) (mpps, gbps float64) {
		// Offer slightly above line rate of mixed traffic.
		rng := sim.NewRand(77)
		var rxPkts, rxBytes int64
		measuring := false
		port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			if measuring {
				rxPkts++
				rxBytes += int64(len(fr))
			}
		}
		mean := dist.Mean()
		interval := flexdriver.Duration(mean * 8 / 26.5e9 * float64(flexdriver.Second))
		openLoopWindow(rp.Engine(), interval, window, &measuring, func() {
			port.Send(buildFrame(dist.Sample(rng), 4000, 7777))
		})
		return float64(rxPkts) / window.Seconds() / 1e6,
			float64(rxBytes) * 8 / window.Seconds() / 1e9
	}

	rp, port, _ := fldeRemoteBed()
	fldMpps, fldGbps := run(rp, port)
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

	rp, port, _ := fldeRemoteBed()
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
// RTTs in us.
func closedLoopRTT(rp *flexdriver.RemotePair, port *swdriver.EthPort, samples int) stats.Summary {
	rp.Client.Drv.Prm = latencyDriverParams()
	eng := rp.Engine()
	frame := buildFrame(64, 5000, 6000)
	var s stats.Sample
	var sentAt flexdriver.Time
	n := 0
	const warmupSamples = 200
	fire := func() {
		sentAt = eng.Now()
		port.Send(frame)
	}
	port.OnReceive = func([]byte, swdriver.RxMeta) {
		rtt := eng.Now() - sentAt
		if n >= warmupSamples {
			s.Add(rtt.Microseconds())
		}
		n++
		if n < samples+warmupSamples {
			fire()
		}
	}
	fire()
	eng.Run()
	return s.Summarize()
}

// LatencyPoint is one Figure 7c sample.
type LatencyPoint struct {
	OfferedGbps   float64
	AchievedGbps  float64
	MedianUs, P99 float64
}

// Fig7c measures FLD-R 1 KiB message latency under increasing load
// (remote), reproducing the queueing knee near ~82% of capacity.
func Fig7c(fractions []float64, perPoint int) *Result {
	r := &Result{ID: "fig7c", Title: "FLD-R 1 KiB latency vs load (remote)"}
	r.Columns = []string{"offered Gbps", "achieved Gbps", "median us", "p99 us"}
	const size = 1024
	capacity := echoModelFor(FLDRRemote, size)

	var pts []LatencyPoint
	for _, frac := range fractions {
		offered := frac * capacity
		med, p99, achieved := fldrLatencyAtLoad(size, offered, perPoint)
		pts = append(pts, LatencyPoint{OfferedGbps: offered, AchievedGbps: achieved, MedianUs: med, P99: p99})
		r.AddRow(f2(offered), f2(achieved), f2(med), f2(p99))
	}
	// The simulated base RTT is lower than the published 10.6 us (the
	// prototype's FPGA clock-domain crossings and PCIe switch internals
	// are not modeled); the claims under test are the curve's shape.
	base := pts[0].MedianUs
	r.Check("low-load median RTT", 10.6, base, "us", base > 3 && base < 12,
		"absolute base depends on unmodeled FPGA internals")
	// The paper also reports the local topology's low-load latency
	// (9.4 us vs 10.6 us remote): loopback QPs on one Innova node.
	localMed := fldrLocalLowLoadLatency(size, perPoint/4)
	r.AddRow("(local, low load)", "-", f2(localMed), "-")
	r.Check("local < remote at low load", 9.4/10.6, localMed/base,
		"ratio", localMed < base, "no wire hop on the local path")
	mono := true
	for i := 1; i < len(pts); i++ {
		if pts[i].MedianUs < pts[i-1].MedianUs-0.3 {
			mono = false
		}
	}
	r.Check("latency grows with load", 1, b2f(mono), "", mono, "")
	// Knee: the overloaded point's median is several times the base.
	last := pts[len(pts)-1].MedianUs
	r.Check("queueing knee near saturation", 3, last/base, "x", last/base > 2, "")
	// Throughput saturates below the model's expectation, like the
	// paper's ~82% bottleneck observation.
	peak := 0.0
	for _, p := range pts {
		if p.AchievedGbps > peak {
			peak = p.AchievedGbps
		}
	}
	sat := peak / capacity
	r.Check("saturation fraction of expected BW", 0.82, sat, "", sat > 0.75 && sat <= 1.0, "")
	return r
}

func fldrLatencyAtLoad(size int, offeredGbps float64, samples int) (medianUs, p99Us, achievedGbps float64) {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()))
	ep := fldrEchoBed(rp.Server, rp.Client.Drv, 512, 128)

	var lat stats.Sample
	var sendTimes []flexdriver.Time
	var rxBytes int64
	var t0 flexdriver.Time
	recv := 0
	ep.OnMessage = func(data []byte) {
		// Echoes return in order: match FIFO.
		rtt := rp.Engine().Now() - sendTimes[recv]
		recv++
		lat.Add(rtt.Microseconds())
		rxBytes += int64(len(data))
	}
	msg := make([]byte, size)
	mean := flexdriver.Duration(float64(size*8) / (offeredGbps * 1e9) * float64(flexdriver.Second))
	rng := sim.NewRand(5)
	sent := 0
	var tick func()
	tick = func() {
		if sent >= samples {
			return
		}
		sent++
		sendTimes = append(sendTimes, rp.Engine().Now())
		ep.Send(msg)
		rp.Engine().After(rng.Exp(mean), tick)
	}
	t0 = rp.Engine().Now()
	tick()
	rp.Run()
	dur := rp.Engine().Now() - t0
	if dur <= 0 {
		dur = 1
	}
	return lat.Median(), lat.Percentile(99), float64(rxBytes) * 8 / dur.Seconds() / 1e9
}

// fldrLocalLowLoadLatency measures the single-node FLD-R echo RTT: the
// client endpoint lives on the Innova host and its QP loops back through
// the eSwitch to the FLD QP (the paper's local setup, 9.4 us median).
func fldrLocalLowLoadLatency(size, samples int) float64 {
	inn := flexdriver.NewLocalInnova(flexdriver.WithDriver(genDriverParams()))
	ep := fldrEchoBed(inn, inn.Drv, 64, 64)
	var lat stats.Sample
	var sentAt flexdriver.Time
	msg := make([]byte, size)
	n := 0
	var fire func()
	ep.OnMessage = func([]byte) {
		lat.Add((inn.Engine().Now() - sentAt).Microseconds())
		n++
		if n < samples {
			fire()
		}
	}
	fire = func() {
		sentAt = inn.Engine().Now()
		ep.Send(msg)
	}
	fire()
	inn.Run()
	return lat.Median()
}
