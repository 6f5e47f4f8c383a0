package exps

import (
	"encoding/binary"

	"flexdriver"
	"flexdriver/internal/accel/defrag"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// kernelCores models the receiver's network-stack cores in the §8.2.2
// iperf experiment: each receive queue drains into one core that charges
// a per-packet kernel-path cost; in software-defragmentation mode the
// cores additionally run a real reassembler.
type kernelCores struct {
	eng      *flexdriver.Engine
	cores    []*sim.Resource
	perPkt   sim.Duration
	reasm    []*defrag.Reassembler // per core, software-defrag mode only
	rqs      []*nic.RQ
	pis      []uint32
	nodes    *flexdriver.Innova
	AppBytes int64 // reassembled application payload delivered
	Packets  int64
}

// newKernelCores builds n cores each with a receive queue, returning the
// TIR that RSS-spreads across them.
func newKernelCores(inn *flexdriver.Innova, n int, perPkt sim.Duration, swDefrag bool) (*kernelCores, *nic.TIR) {
	k := &kernelCores{eng: inn.Engine(), perPkt: perPkt, nodes: inn}
	tir := &nic.TIR{}
	for i := 0; i < n; i++ {
		i := i
		core := sim.NewResource(inn.Engine())
		k.cores = append(k.cores, core)
		if swDefrag {
			k.reasm = append(k.reasm, defrag.NewReassembler(10*flexdriver.Millisecond, 4096))
		} else {
			k.reasm = append(k.reasm, nil)
		}
		const entries = 512
		const bufBytes = 2048
		cqRing := inn.Mem.Alloc(entries*nic.CQESize, 64)
		rqRing := inn.Mem.Alloc(entries*nic.RecvWQESize, 64)
		bufs := inn.Mem.Alloc(entries*bufBytes, 4096)
		var rq *nic.RQ
		cq := inn.NIC.CreateCQ(nic.CQConfig{Ring: inn.Fab.AddrOf(inn.Mem, cqRing), Size: entries,
			OnCQE: func(c nic.CQE) { k.onPacket(i, c) }})
		rq = inn.NIC.CreateRQ(nic.RQConfig{Ring: inn.Fab.AddrOf(inn.Mem, rqRing), Size: entries, CQ: cq})
		for j := 0; j < entries; j++ {
			w := nic.RecvWQE{Addr: inn.Fab.AddrOf(inn.Mem, bufs+uint64(j*bufBytes)), Len: bufBytes}
			inn.Mem.WriteAt(rqRing+uint64(j)*nic.RecvWQESize, w.Marshal())
		}
		k.rqs = append(k.rqs, rq)
		k.pis = append(k.pis, entries)
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], entries)
		inn.Fab.Write(inn.Fab.PortOf(inn.NIC).Base()+nic.RQDoorbellOffset(rq.ID), b[:])
		tir.RQs = append(tir.RQs, rq)
	}
	return k, tir
}

// onPacket charges the kernel path and counts delivered application bytes.
func (k *kernelCores) onPacket(core int, c nic.CQE) {
	// Recycle the buffer immediately (in-order ring).
	k.pis[core]++
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], k.pis[core])
	k.nodes.Fab.Write(k.nodes.Fab.PortOf(k.nodes.NIC).Base()+nic.RQDoorbellOffset(k.rqs[core].ID), b[:])

	base := k.nodes.Fab.PortOf(k.nodes.Mem).Base()
	frame := k.nodes.Mem.ReadAt(c.Addr-base, int(c.ByteCount))
	k.eng.After(k.cores[core].Acquire(k.perPkt)-k.eng.Now(), func() {
		k.Packets++
		if k.reasm[core] != nil {
			full, done := k.reasm[core].Add(frame, k.eng.Now())
			if !done {
				return
			}
			frame = full
		}
		if n, ok := appPayloadLen(frame); ok {
			k.AppBytes += int64(n)
		}
	})
}

// appPayloadLen extracts the UDP/TCP payload length of a complete frame.
func appPayloadLen(frame []byte) (int, bool) {
	eth, ipb, err := netpkt.ParseEth(frame)
	if err != nil || eth.EtherType != netpkt.EtherTypeIPv4 {
		return 0, false
	}
	h, pl, err := netpkt.ParseIPv4(ipb)
	if err != nil || h.IsFragment() {
		return 0, false
	}
	switch h.Proto {
	case netpkt.ProtoUDP:
		if _, p, err := netpkt.ParseUDP(pl); err == nil {
			return len(p), true
		}
	case netpkt.ProtoTCP:
		if _, p, err := netpkt.ParseTCP(pl); err == nil {
			return len(p), true
		}
	}
	return 0, false
}

// DefragConfig selects one §8.2.2 configuration.
type DefragConfig int

// The three (plus VXLAN) configurations.
const (
	NoFrag DefragConfig = iota
	SWDefrag
	HWDefrag
	HWDefragVXLAN
)

func (c DefragConfig) String() string {
	switch c {
	case NoFrag:
		return "no fragmentation"
	case SWDefrag:
		return "software defrag"
	case HWDefrag:
		return "hardware defrag (FLD)"
	case HWDefragVXLAN:
		return "hardware defrag + VXLAN decap"
	}
	return "?"
}

// defragSenderParams: fragmenting in software costs the sender per-frame
// CPU; VXLAN encapsulation costs substantially more (it becomes the
// bottleneck, as the paper observes).
func defragSenderParams(cfg DefragConfig) flexdriver.DriverParams {
	p := genDriverParams()
	switch cfg {
	case SWDefrag, HWDefrag:
		p.TxCost = 150 * flexdriver.Nanosecond // software ip_fragment path
	case HWDefragVXLAN:
		p.TxCost = 357 * flexdriver.Nanosecond // fragment + encap + tunnel route
	}
	return p
}

// vxlanEncap wraps a frame for the tunnel configurations.
func vxlanEncap(inner []byte, vni uint32) []byte {
	return netpkt.BuildUDP(netpkt.Eth{Dst: netpkt.MACFrom(22), Src: netpkt.MACFrom(21)},
		netpkt.IPFrom(21), netpkt.IPFrom(22), 41000, netpkt.VXLANPort,
		append(netpkt.VXLAN{VNI: vni}.Marshal(nil), inner...))
}

// defragThroughput measures one configuration's delivered application
// goodput in Gbit/s.
func defragThroughput(cfg DefragConfig, flows int, window flexdriver.Duration) float64 {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(defragSenderParams(cfg)))
	srv := rp.Server

	const kernelCost = 1875 * flexdriver.Nanosecond // per-packet kernel path
	cores, tir := newKernelCores(srv, 8, kernelCost, cfg == SWDefrag)

	esw := srv.NIC.ESwitch()
	const appTable = 40
	switch cfg {
	case NoFrag, SWDefrag:
		// Everything straight to RSS; fragments hash to one core.
		esw.AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToTable: intp(appTable)}})
	case HWDefrag, HWDefragVXLAN:
		srv.RT.CreateEthTxQueue(0, nil)
		afu := defrag.NewAFU(srv.FLD, srv.Engine(), 10*flexdriver.Millisecond, 4096)
		_ = afu
		ecp := flexdriver.NewEControlPlane(srv.RT)
		if cfg == HWDefragVXLAN {
			// NIC tunnel offload first, then the fragment detour.
			vni := uint32(99)
			esw.AddRule(0, flexdriver.Rule{
				Match:  flexdriver.Match{VNI: &vni},
				Action: flexdriver.Action{Decap: true, Count: "vxlan-decap", ToTable: intp(20)},
			})
			esw.AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToTable: intp(20)}})
		} else {
			esw.AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToTable: intp(20)}})
		}
		// Table 20: fragments detour through the accelerator and resume
		// at the application steering table.
		ecp.InstallAccelerate(flexdriver.AccelerateSpec{
			Table:     20,
			Match:     flexdriver.Match{IsFragment: boolp(true)},
			Context:   7,
			NextTable: appTable,
		})
		esw.AddRule(20, flexdriver.Rule{Action: flexdriver.Action{ToTable: intp(appTable)}})
		srv.RT.Start()
	}
	// Application steering: RSS across the kernel cores.
	esw.AddRule(appTable, flexdriver.Rule{Action: flexdriver.Action{ToTIR: tir}})

	// Sender: 60 saturating flows of 1500 B packets.
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512, BufBytes: 2048})
	const pktSize = 1500
	const routeMTU = 1450
	var frames [][]byte
	for f := 0; f < flows; f++ {
		frame := buildFrame(pktSize, uint16(40000+f), 5201)
		switch cfg {
		case NoFrag:
			frames = append(frames, frame)
		case SWDefrag, HWDefrag:
			frags, err := netpkt.FragmentEth(frame, routeMTU)
			if err != nil {
				panic(err)
			}
			frames = append(frames, frags...)
		case HWDefragVXLAN:
			// Pre-fragmentation: fragment the inner packet, then
			// encapsulate each fragment.
			frags, err := netpkt.FragmentEth(frame, routeMTU-50)
			if err != nil {
				panic(err)
			}
			for _, fr := range frags {
				frames = append(frames, vxlanEncap(fr, 99))
			}
		}
	}

	// Offer at (slightly above) line rate, cycling flows; the sender CPU
	// cost may itself be the bottleneck (the paper's VXLAN case).
	var wireBytes int
	for _, f := range frames {
		wireBytes += len(f) + 20
	}
	idx := 0
	return goodput(rp.Engine(), 200*flexdriver.Microsecond, window, float64(wireBytes)/float64(len(frames)), 26.5, func() {
		port.Send(frames[idx%len(frames)])
		idx++
	}, func() int64 { return cores.AppBytes })
}

func intp(v int) *int    { return &v }
func boolp(v bool) *bool { return &v }

// Defrag reproduces §8.2.2: iperf-style throughput with and without the
// FLD defragmentation offload.
func Defrag(window flexdriver.Duration) *Result {
	r := &Result{ID: "defrag", Title: "IP defragmentation offload (60 TCP-like flows, Gbps)"}
	r.Columns = []string{"configuration", "Gbps"}
	noFrag := defragThroughput(NoFrag, 60, window)
	sw := defragThroughput(SWDefrag, 60, window)
	hw := defragThroughput(HWDefrag, 60, window)
	vx := defragThroughput(HWDefragVXLAN, 60, window)
	r.AddRow(NoFrag.String(), f2(noFrag))
	r.AddRow(SWDefrag.String(), f2(sw))
	r.AddRow(HWDefrag.String(), f2(hw))
	r.AddRow(HWDefragVXLAN.String(), f2(vx))

	r.Check("no fragmentation", 23.2, noFrag, "Gbps", noFrag > 21, "line-bound")
	r.Check("software defrag", 3.2, sw, "Gbps", within(sw, 3.2, 0.30), "RSS broken: one core")
	r.Check("hardware defrag", 22.4, hw, "Gbps", hw > 20, "RSS restored")
	r.Check("hw/sw speedup", 7, hw/sw, "x", hw/sw > 5, "")
	r.Check("with VXLAN decap", 16.8, vx, "Gbps", within(vx, 16.8, 0.30), "sender-bound")
	r.Check("vxlan/sw speedup", 5.25, vx/sw, "x", vx/sw > 3.5, "")
	return r
}
