// Package perfmodel implements the paper's analytic performance models
// (§8.1): the per-packet PCIe-overhead model behind Figure 7a (expected
// FLD throughput vs a raw Ethernet attachment) and the RoCE/app-header
// upper bound used in Figure 8a for the disaggregated ZUC accelerator.
package perfmodel

import (
	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/fld"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// EchoModel captures the FLD-E echo data path's PCIe cost: every packet
// crosses the NIC-FPGA link twice (in as a buffer write, out as read
// completions) along with its control traffic (completions, descriptors,
// doorbells).
type EchoModel struct {
	// Link is the NIC-FPGA PCIe configuration.
	Link pcie.LinkConfig
	// EthRateGbps is the network-facing line rate.
	EthRateGbps float64
	// FLD is the module's configuration. Its SignalEvery amortizes
	// transmit completions (§6), WQEByMMIO pushes each 64 B descriptor
	// instead of letting the NIC read it (request + completion), and its
	// RxWQEBytes buffer amortizes the receive producer-index doorbell
	// over the full-size frames it holds.
	FLD fld.Config
	// PpsCap bounds packet rate (the FLD pipeline's clock ceiling);
	// zero means unbounded.
	PpsCap float64
}

// DefaultEchoModel matches the prototype configuration at the given
// rate. Configurations up to 50 GbE pair with the Innova-2's Gen3 x8
// internal link; the 100 Gbps configuration pairs with a 100 Gbps-class
// fabric (Gen4 x8), as the paper's model does ("different network and
// PCIe rates").
func DefaultEchoModel(ethGbps float64) EchoModel {
	link := pcie.Gen3x8()
	if ethGbps > 50 {
		link.Gen = 4
	}
	return EchoModel{Link: link, EthRateGbps: ethGbps, FLD: fld.DefaultConfig()}
}

// EthernetGoodput returns the payload throughput (Gbit/s) of a raw
// Ethernet port at the given frame size: rate x S/(S+20).
func EthernetGoodput(rateGbps float64, size int) float64 {
	return rateGbps * float64(size) / float64(size+nic.EthWireOverhead)
}

// PerPacketBytes returns the wire bytes one echoed packet of the given
// size costs on each direction of the NIC-FPGA link.
func (m EchoModel) PerPacketBytes(size int) (toFPGA, toNIC int) { return m.perOp(size, size) }

// perOp returns the wire bytes a req-byte frame answered by a resp-byte
// frame costs on each direction of the NIC-FPGA link.
func (m EchoModel) perOp(req, resp int) (toFPGA, toNIC int) {
	l, c := m.Link, m.FLD
	// NIC -> FPGA: the received frame into the MPRQ buffer, its receive
	// CQE, the MRd requests for the transmit data, and the amortized
	// transmit CQE.
	toFPGA = l.WriteWireBytes(req) + l.WriteWireBytes(nic.CQESize) + l.ReadReqWireBytes(resp) +
		l.WriteWireBytes(nic.CQESize)/c.SignalEvery
	// FPGA -> NIC: transmit data as read completions, the pushed WQE
	// (or a doorbell when the NIC reads descriptors, in which case the
	// descriptor read's completion also flows here), and the amortized
	// receive-ring producer index (one per buffer of ~1.5 KiB frames).
	toNIC = l.CompletionWireBytes(resp)
	if c.WQEByMMIO {
		toNIC += l.WriteWireBytes(nic.SendWQESize)
	} else {
		toNIC += l.WriteWireBytes(fld.ProducerIndexBytes) + l.CompletionWireBytes(nic.SendWQESize)
		toFPGA += l.ReadReqWireBytes(nic.SendWQESize)
	}
	toNIC += l.WriteWireBytes(fld.ProducerIndexBytes) / max(c.RxWQEBytes/1536, 1)
	return toFPGA, toNIC
}

// PCIeGoodput returns the payload throughput (Gbit/s) the PCIe link
// sustains for echoed packets of the given size: the bottleneck direction
// limits the packet rate.
func (m EchoModel) PCIeGoodput(size int) float64 {
	toFPGA, toNIC := m.PerPacketBytes(size)
	worst := toFPGA
	if toNIC > worst {
		worst = toNIC
	}
	eff := float64(m.Link.EffectiveRate()) / 1e9
	return eff * float64(size) / float64(worst)
}

// Goodput returns the expected FLD echo throughput (Gbit/s of packet
// bytes): the minimum of the Ethernet line, the PCIe bottleneck, and the
// pipeline's pps ceiling.
func (m EchoModel) Goodput(size int) float64 {
	g := EthernetGoodput(m.EthRateGbps, size)
	if p := m.PCIeGoodput(size); p < g {
		g = p
	}
	if m.PpsCap > 0 {
		if c := m.PpsCap * float64(size) * 8 / 1e9; c < g {
			g = c
		}
	}
	return g
}

// FractionOfEthernet reports FLD's expected goodput as a fraction of the
// raw-Ethernet attachment at the same size (the paper's "95 % of Ethernet
// line rate at 512 B" claim).
func (m EchoModel) FractionOfEthernet(size int) float64 {
	return m.Goodput(size) / EthernetGoodput(m.EthRateGbps, size)
}

// Point is one Figure 7a sample.
type Point struct {
	Size             int
	EthernetGbps     float64
	FLDGbps          float64
	FractionOfEthNet float64
}

// Sweep evaluates the model across packet sizes.
func (m EchoModel) Sweep(sizes []int) []Point {
	out := make([]Point, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, Point{
			Size:             s,
			EthernetGbps:     EthernetGoodput(m.EthRateGbps, s),
			FLDGbps:          m.Goodput(s),
			FractionOfEthNet: m.FractionOfEthernet(s),
		})
	}
	return out
}

// KVServeModel is the analytic bound for the key-value serving
// experiment (exps.KVServe): request frames of ReqBytes arrive on the
// Ethernet link, cross the NIC-FPGA PCIe link into the KV AFU, and a
// RespBytes response crosses back and out — the echo model's cost
// structure with asymmetric sizes.
type KVServeModel struct {
	Echo EchoModel
	// ReqBytes / RespBytes are the full wire frame sizes (Ethernet
	// header through payload) of one request and the mean response.
	ReqBytes, RespBytes int
}

// DefaultKVServeModel matches the prototype serving setup at the given
// line rate and frame sizes.
func DefaultKVServeModel(ethGbps float64, reqBytes, respBytes int) KVServeModel {
	return KVServeModel{Echo: DefaultEchoModel(ethGbps), ReqBytes: reqBytes, RespBytes: respBytes}
}

// PerRequestBytes returns the NIC-FPGA wire bytes one served request
// costs in each direction: the echo's cost structure with the request in
// and the response out.
func (m KVServeModel) PerRequestBytes() (toFPGA, toNIC int) {
	return m.Echo.perOp(m.ReqBytes, m.RespBytes)
}

// RequestRate returns the served-requests-per-second upper bound: the
// minimum of the Ethernet link in each direction, the PCIe bottleneck
// direction, and the pipeline's pps ceiling.
func (m KVServeModel) RequestRate() float64 {
	ethBps := m.Echo.EthRateGbps * 1e9
	r := ethBps / (float64(m.ReqBytes+nic.EthWireOverhead) * 8)
	if out := ethBps / (float64(m.RespBytes+nic.EthWireOverhead) * 8); out < r {
		r = out
	}
	toFPGA, toNIC := m.PerRequestBytes()
	worst := toFPGA
	if toNIC > worst {
		worst = toNIC
	}
	if p := float64(m.Echo.Link.EffectiveRate()) / 8 / float64(worst); p < r {
		r = p
	}
	if m.Echo.PpsCap > 0 && m.Echo.PpsCap < r {
		r = m.Echo.PpsCap
	}
	return r
}

// OfferedGoodputGbps returns the response goodput at an offered request
// rate (requests/s), capped by the ceiling.
func (m KVServeModel) OfferedGoodputGbps(rps float64) float64 {
	if cap := m.RequestRate(); rps > cap {
		rps = cap
	}
	return rps * float64(m.RespBytes) * 8 / 1e9
}

// BaseRTTUs is the unloaded request latency: serialization of the
// request and response on two Ethernet hops each (client-switch,
// switch-server), both PCIe crossings, and a fixed allowance for the
// store-and-forward and pipeline stages along the path.
func (m KVServeModel) BaseRTTUs() float64 {
	ethBps := m.Echo.EthRateGbps * 1e9
	ser := 2 * float64((m.ReqBytes+m.RespBytes)*8) / ethBps * 1e6
	toFPGA, toNIC := m.PerRequestBytes()
	pcie := float64((toFPGA+toNIC)*8) / float64(m.Echo.Link.EffectiveRate()) * 1e6
	const pipeline = 3.0 // us: NIC pipelines, FLD stages, driver CPU costs
	return ser + pcie + pipeline
}

// P999BoundUs is the analytic 99.9th-percentile latency envelope at
// utilization rho: the unloaded RTT plus an M/D/1-shaped queueing term
// scaled by ln(1000) for the tail quantile, with headroom for the
// open-loop arrival bursts the mean-wait formula undercounts.
func (m KVServeModel) P999BoundUs(rho float64) float64 {
	if rho >= 0.99 {
		rho = 0.99
	}
	if rho < 0 {
		rho = 0
	}
	svc := 1e6 / m.RequestRate() // us per request at the bottleneck
	wait := rho / (1 - rho) * svc / 2
	const lnTail = 6.9 // ln(1000)
	return m.BaseRTTUs() + lnTail*(wait+svc) + 2*m.BaseRTTUs()
}

// ZucModel is the Figure 8a upper bound: the 25 GbE link carrying RoCE
// framing plus the application header per request/response, and the
// AFU's lanes.
type ZucModel struct {
	LinkGbps  float64
	MTU       int
	AppHeader int
	Lane      zuc.LaneParams
	Lanes     int
}

// DefaultZucModel matches the prototype: the NIC's RoCE MTU, the cipher's
// request header and the AFU's lanes.
func DefaultZucModel() ZucModel {
	return ZucModel{LinkGbps: 25, MTU: nic.DefaultParams().RoCEMTU, AppHeader: zuc.HeaderBytes,
		Lane: zuc.DefaultLaneParams(), Lanes: zuc.Lanes}
}

// Goodput returns the expected request-payload throughput (Gbit/s) for
// the given request size.
func (m ZucModel) Goodput(size int) float64 {
	msg := size + m.AppHeader
	pkts := (msg + m.MTU - 1) / m.MTU
	wire := msg + pkts*(nic.RoCEOverhead+nic.EthWireOverhead)
	link := m.LinkGbps * float64(size) / float64(wire)
	// Accelerator bound: lanes x bytes per service time.
	svc := float64(m.Lane.PerMessage+sim.Duration(msg)*m.Lane.PerByte) / float64(sim.Second)
	accel := float64(m.Lanes) * float64(size) * 8 / svc / 1e9
	if accel < link {
		return accel
	}
	return link
}
