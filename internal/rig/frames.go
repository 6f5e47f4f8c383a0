package rig

import (
	"flexdriver"
	"flexdriver/internal/netpkt"
)

var zeros [1 << 16]byte // UDPFrame's payload, which BuildUDP copies

// UDPFrame builds a zero-payload UDP frame between two racked NICs, size
// bytes on the wire.
func UDPFrame(src, dst *flexdriver.NIC, sport, dport uint16, size int) []byte {
	payload := zeros[:size-netpkt.EthHeaderLen-netpkt.IPv4HeaderLen-netpkt.UDPHeaderLen]
	return netpkt.BuildUDP(netpkt.Eth{Dst: dst.MAC, Src: src.MAC}, src.IP, dst.IP, sport, dport, payload)
}

// SwapEcho reverses a frame in place — Ethernet addresses, IPv4
// addresses, L4 ports — so the reply routes back through the switch to
// the sender. Pure swaps keep the IPv4 header checksum valid, and the
// port words sit at the same offsets in UDP and TCP.
func SwapEcho(f []byte) {
	if len(f) < netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+netpkt.UDPHeaderLen {
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

// Echo is the cluster-aware echo AFU: unlike the verbatim echo (whose
// replies would hairpin into the switch's source filter) it swaps the
// headers, so each reply is addressed to its client.
type Echo struct {
	// SendFails counts replies the core could not post (credit stalls
	// under load or a fault storm): open-loop loss with a reason.
	SendFails int64
	// Rewrite, when set, edits the swapped reply before it is sent — the
	// seam planted defects use.
	Rewrite func(reply []byte)
}

// InstallEcho puts an Echo on the core.
func InstallEcho(f *flexdriver.FLD) *Echo {
	e := &Echo{}
	f.SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
		out := f.Engine().Bufs().Clone(data) // Send copies it into the core
		SwapEcho(out)
		if e.Rewrite != nil {
			e.Rewrite(out)
		}
		if f.Send(0, out, md) != nil {
			e.SendFails++
		}
		f.Engine().Bufs().Put(out)
	}))
	return e
}
