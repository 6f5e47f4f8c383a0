package main

import (
	"flexdriver"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
	"flexdriver/internal/stats"
)

// genDriver models a multi-queue line-rate load generator (testpmd with
// several cores / TRex): negligible per-packet software cost, so the
// client host never limits the offered load.
func genDriver() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 4 * flexdriver.Nanosecond, TxCost: 4 * flexdriver.Nanosecond,
		DoorbellBatch: 8,
		SignalEvery:   8,
	}
}

// seqOff is where the 8-byte send ordinal lives in a UDP frame:
// Eth(14) + IPv4(20) + UDP(8).
const seqOff = netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.UDPHeaderLen

// udpFrame builds a size-byte UDP frame between two NICs.
func udpFrame(src, dst *flexdriver.NIC, sport, dport uint16, size int) []byte {
	return udpFrameAddr(src.MAC, dst.MAC, src.IP, dst.IP, sport, dport, size)
}

func udpFrameAddr(srcMAC, dstMAC netpkt.MAC, srcIP, dstIP netpkt.IP, sport, dport uint16, size int) []byte {
	n := size - seqOff
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), make([]byte, n)...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: srcIP, Dst: dstIP}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: dstMAC, Src: srcMAC, EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

func stamp(f []byte, off int, v int64) {
	for i := 7; i >= 0; i-- {
		f[off+i] = byte(v)
		v >>= 8
	}
}

func unstamp(f []byte, off int) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v = v<<8 | int64(f[off+i])
	}
	return v
}

// swapEcho reverses a UDP frame in place — Ethernet addresses, IPv4
// addresses, UDP ports — so the reply routes back through the switch to
// its sender. Pure swaps keep the IPv4 header checksum valid.
func swapEcho(f []byte) {
	if len(f) < seqOff {
		return
	}
	for i := 0; i < 6; i++ {
		f[i], f[6+i] = f[6+i], f[i]
	}
	for i := 0; i < 4; i++ {
		f[26+i], f[30+i] = f[30+i], f[26+i]
	}
	f[34], f[36] = f[36], f[34]
	f[35], f[37] = f[37], f[35]
}

// echoGen is one open-loop echo client's generator state: a ring of
// preallocated frame copies (EthPort.Send keeps the slice until the
// driver posts it, so a frame may not be restamped while queued), the
// send-time log and the latency log, all sized up front from the known
// offered rate so the run section allocates nothing of ours.
//
// Every field is private to the client's shard during a run.
type echoGen struct {
	eng    *sim.Engine
	ring   [][]byte // ring[i%len] carries ordinal i
	tmpl   [][]byte // flow templates, round-robined
	sendAt []sim.Time
	lat    []float32 // in-window RTTs, µs
	sent   int64
	recv   int64
	maxSeq int64 // highest ordinal echoed back
	rxB    int64 // bytes echoed back inside the window
	spill  int64 // sends that outran the ring and had to allocate
	from   sim.Time
	to     sim.Time // window [from, to): RTTs by send time, goodput by arrival
}

const echoRing = 4096

// newEchoGen sizes the logs for expect sends (with head-room for the
// Poisson tail; append still grows them if a draw exceeds it).
func newEchoGen(eng *sim.Engine, tmpl [][]byte, expect int, from, to sim.Time) *echoGen {
	g := &echoGen{eng: eng, tmpl: tmpl, from: from, to: to, maxSeq: -1,
		ring:   make([][]byte, echoRing),
		sendAt: make([]sim.Time, 0, expect+expect/8+1024),
		lat:    make([]float32, 0, expect+expect/8+1024),
	}
	size := 0
	for _, t := range tmpl {
		if len(t) > size {
			size = len(t)
		}
	}
	slab := make([]byte, echoRing*size)
	for i := range g.ring {
		g.ring[i] = slab[i*size : (i+1)*size : (i+1)*size]
	}
	return g
}

// next returns the stamped frame for the next ordinal. A ring slot is
// reused only once the ordinal it carried has come back (frames post in
// order, so everything older has left the driver too); otherwise the
// send falls back to a fresh copy and counts a spill.
func (g *echoGen) next() []byte {
	seq := g.sent
	t := g.tmpl[int(seq)%len(g.tmpl)]
	var f []byte
	if seq < echoRing || seq-echoRing <= g.maxSeq {
		f = g.ring[seq%echoRing][:len(t)]
	} else {
		f = make([]byte, len(t))
		g.spill++
	}
	copy(f, t)
	stamp(f, seqOff, seq)
	g.sendAt = append(g.sendAt, g.eng.Now())
	g.sent++
	return f
}

// onEcho accounts one returned frame.
func (g *echoGen) onEcho(fr []byte) {
	if len(fr) < seqOff+8 {
		return
	}
	seq := unstamp(fr, seqOff)
	if seq < 0 || seq >= int64(len(g.sendAt)) {
		return
	}
	g.recv++
	if seq > g.maxSeq {
		g.maxSeq = seq
	}
	now := g.eng.Now()
	if now >= g.from && now < g.to {
		g.rxB += int64(len(fr))
	}
	if at := g.sendAt[seq]; at >= g.from && at < g.to {
		g.lat = append(g.lat, float32((now - at).Microseconds()))
	}
}

// rttModel folds a workload's sim-time observations into the model.*
// numbers every topology workload reports: in-window goodput and the RTT
// median and 99th percentile (with the sample count beside them).
func rttModel(lat []float32, rxBytes int64, window sim.Duration) map[string]float64 {
	sample := stats.NewSample(len(lat))
	for _, v := range lat {
		sample.Add(float64(v))
	}
	return map[string]float64{
		"model.goodput_gbps": float64(rxBytes) * 8 / window.Seconds() / 1e9,
		"model.rtt_p50_us":   sample.Median(),
		"model.rtt_p99_us":   sample.Percentile(99),
		"model.rtt_n":        float64(sample.N()),
	}
}
