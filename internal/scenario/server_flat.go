package scenario

import (
	"flexdriver"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/rig"
	"flexdriver/internal/rpc"
	"flexdriver/internal/tcp"
)

const (
	// servicePort is the flat server's one service port.
	servicePort = 7777
	// seqOff is where the 8-byte send ordinal lives in a delivered UDP
	// echo frame: Eth(14) + IPv4(20) + UDP(8).
	seqOff = 42
	// vxlanOuter is the encapsulation overhead in front of the inner
	// frame: outer Eth(14) + IPv4(20) + UDP(8) + VXLAN(8).
	vxlanOuter = 50
	// rpcStampOff is the ordinal's home on the rpc path: the RPC
	// correlation ID inside the frame header, which the kv server echoes
	// into its response.
	rpcStampOff = tcp.FrameOverhead + rpc.IDOffset
	// rpcFrameMin is the smallest rpc request the flow builder emits:
	// headers plus an 8-byte key and room for a value.
	rpcFrameMin = 96
)

// proto is one protocol the flat server can speak: the client side's
// framing, and the AFU that serves it on a core. serve returns the tally
// of the losses that AFU can give a reason for (replies it could not
// post, requests it rejected), excused under lossReason at gather.
type proto struct {
	framing
	serve      func(f *flexdriver.FLD) (losses func() int64)
	lossReason string
	// steer narrows and dresses the server's wire-ingress rule (zero:
	// everything addressed to the server, as is).
	steer flexdriver.Rule
}

var vxlanPort uint16 = netpkt.VXLANPort

// echo is the header-swapping echo AFU; its reasoned losses are replies
// the core could not post (credit stalls under fault storms).
func echo(f *flexdriver.FLD) func() int64 {
	e := rig.InstallEcho(f)
	return func() int64 { return e.SendFails }
}

// protos is every (path, proto) the spec can name. A reply carries the
// stamp where the request put it, except that decapped VXLAN replies have
// lost the outer headers. A new protocol is one more entry here (and its
// name in the spec grammar), not an edit to Run.
var protos = map[string]proto{
	"": {serve: echo, lossReason: "echo-fail",
		framing: framing{dport: servicePort, stampOff: seqOff, recvOff: seqOff,
			build: func(src, dst *flexdriver.NIC, sport, dport uint16, size, _ int) []byte {
				return rig.UDPFrame(src, dst, sport, dport, size)
			}}},
	// vxlan stamps the *inner* frame, which is what comes back once the
	// server NIC's decap rule has stripped the envelope.
	"vxlan": {serve: echo, lossReason: "echo-fail",
		steer: flexdriver.Rule{
			Match:  flexdriver.Match{DstPort: &vxlanPort},
			Action: flexdriver.Action{Decap: true}},
		framing: framing{dport: servicePort, stampOff: vxlanOuter + seqOff, recvOff: seqOff,
			build: func(src, dst *flexdriver.NIC, sport, dport uint16, size, _ int) []byte {
				return vxlanWrap(src, dst, sport, rig.UDPFrame(src, dst, sport, dport, size))
			}}},
	// tcp carries the ordinal in the first payload bytes behind Eth(14) +
	// IPv4(20) + TCP(20), through the same echo (the port words sit at the
	// UDP offsets, so the swap is framing-blind). The sequence fields are
	// inert: the server does not terminate the stream.
	"tcp": {serve: echo, lossReason: "echo-fail",
		framing: framing{dport: servicePort, stampOff: tcp.FrameOverhead, recvOff: tcp.FrameOverhead,
			build: func(src, dst *flexdriver.NIC, sport, dport uint16, size, _ int) []byte {
				return tcpFrame(src, dst, sport, dport, make([]byte, size-tcp.FrameOverhead))
			}}},
	// rpc is the serving path: each core answers GET/PUT from its private
	// key-value store; its dropped responses and parse rejections join
	// the loss budget like echo send failures do.
	"rpc": {lossReason: "kv",
		serve: func(f *flexdriver.FLD) func() int64 {
			a := kv.New(f)
			return func() int64 { return a.Dropped + a.Malformed }
		},
		framing: framing{dport: servicePort, stampOff: rpcStampOff, recvOff: rpcStampOff,
			build: rpcReqFrame,
			screen: func(c *echoClient, reply []byte) bool {
				if reply[tcp.FrameOverhead+2] == rpc.StatusBadReq {
					// A BadReq response carries no request ID; screening
					// it keeps a rejected request out of the per-ordinal
					// ledger (its loss is the server's Malformed count).
					c.Short++
					return false
				}
				return true
			}}},
}

// flatServer is the single-tenant data path: FLDCores cores behind one
// RSS TIR, every core serving the spec's protocol.
type flatServer struct {
	srv    *rig.Server
	proto  proto
	losses []func() int64 // per core
}

func (p *flatServer) nic() *flexdriver.NIC { return p.srv.NIC }
func (p *flatServer) framing(int) framing  { return p.proto.framing }

// build racks the server. Only frames addressed to it reach its cores
// (rig.Server.Steer): after a switch reboot the FDB is empty and the
// sidecars' frames flood here, and while the rule matched everything the
// kv AFU answered the TCP sidecar's payload-less ACKs with tcp1's source
// MAC — seed 240 looped on the poisoned FDB forever.
func (p *flatServer) build(rn *run) {
	p.proto = protos[rn.spec.Proto]
	if rn.spec.Path == "vxlan" {
		p.proto = protos["vxlan"]
	}
	p.srv = rn.AddServer("server", rn.spec.FLDCores, func(f *flexdriver.FLD) {
		p.losses = append(p.losses, p.proto.serve(f))
	})
	p.srv.Steer(p.proto.steer)
}

func (p *flatServer) start(*run) {}
func (p *flatServer) sweep()     { p.srv.Kick() }

func (p *flatServer) gather(_ *run, j *judgement) {
	var n int64
	for _, losses := range p.losses {
		n += losses()
	}
	j.excuse(p.proto.lossReason, n)
}

func (p *flatServer) check(_ *run, j *judgement) {
	for i, rt := range p.srv.RTs {
		if !rt.QueuesReady() {
			j.bad("queues-recovered", "server FLD runtime %d has queues not in Ready", i)
		}
	}
}

// vxlanWrap encapsulates inner in an outer Eth+IPv4+UDP(4789)+VXLAN
// envelope between the same pair of NICs, the frame shape the server's
// decap rule strips back to inner.
func vxlanWrap(src, dst *flexdriver.NIC, osport uint16, inner []byte) []byte {
	return netpkt.BuildUDP(netpkt.Eth{Dst: dst.MAC, Src: src.MAC}, src.IP, dst.IP,
		osport, netpkt.VXLANPort, append(netpkt.VXLAN{VNI: 42}.Marshal(nil), inner...))
}

// tcpFrame builds a TCP-framed data frame around payload.
func tcpFrame(src, dst *flexdriver.NIC, sport, dport uint16, payload []byte) []byte {
	seg := tcp.Segment{SrcPort: sport, DstPort: dport,
		Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
	return tcp.BuildFrame(src.MAC, dst.MAC, src.IP, dst.IP, seg, payload)
}

// rpcReqFrame builds a TCP-framed RPC request of size bytes: an 8-byte
// key naming the flow and a value filling the rest. Even flows PUT their
// key, odd flows GET the preceding flow's key, so the kv stores see both
// ops (hits once the PUT landed, misses before). The send ordinal goes
// into the correlation ID at rpcStampOff.
func rpcReqFrame(src, dst *flexdriver.NIC, sport, dport uint16, size, fi int) []byte {
	size = max(size, rpcFrameMin)
	op, keyFlow := uint8(rpc.OpPut), fi
	if fi%2 == 1 {
		op, keyFlow = rpc.OpGet, fi-1
	}
	key := make([]byte, 8)
	rig.Stamp(key, 0, int64(sport)<<16|int64(keyFlow))
	val := make([]byte, size-tcp.FrameOverhead-rpc.HeaderLen-len(key))
	for i := range val {
		val[i] = byte(i*3 + fi)
	}
	return tcpFrame(src, dst, sport, dport, rpc.Frame{Op: op, Key: key, Val: val}.Marshal(nil))
}
