package nic

import (
	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

// VPort is a virtual port of the embedded switch. The uplink (wire) is
// port 0; consumers (host driver vNICs, FlexDriver) own further ports.
type VPort struct {
	ID  int
	nic *NIC
	// IngressTable is the match-action table packets arriving *at* this
	// vport are processed by (guest steering: RSS, queue selection).
	IngressTable int
	// EgressTable is the table packets transmitted *by* this vport
	// enter (eSwitch rules: encap, loopback, forwarding).
	EgressTable int
	// Domain is the forwarding domain the vport belongs to: 0 for the
	// PF and the wire, a VF ID for vports owned by that function. The
	// pipeline refuses to move a packet between two nonzero domains —
	// tenant isolation that no programmed rule can override.
	Domain int
}

// UplinkID is the vport number of the physical port.
const UplinkID = 0

// Match selects packets by header fields; nil fields are wildcards.
// Matching happens on the packet's current (possibly decapsulated) view.
type Match struct {
	EtherType  *uint16
	Proto      *uint8
	SrcIP      *netpkt.IP
	DstIP      *netpkt.IP
	SrcPort    *uint16
	DstPort    *uint16
	IsFragment *bool
	VNI        *uint32
	FlowTag    *uint32
}

// pktHdrs caches the parsed headers of the packet's current form.
type pktHdrs struct {
	ethOK  bool
	eth    netpkt.Eth
	ipOK   bool
	ip     netpkt.IPv4
	l4OK   bool
	sport  uint16
	dport  uint16
	vxlan  bool
	vni    uint32
	csumOK bool
}

// pktView is one packet's traversal of the match-action pipeline: the
// header caches rules match on, plus everything that rides along from
// entry (egress, Ingress) to the terminal disposition. Views are recycled
// through a per-NIC pool and stepped by the static trampolines below,
// so a traversal allocates nothing.
type pktView struct {
	sim.Link[pktView]
	frame   []byte
	buf     []byte // the pooled buffer frame is, or (decapped) is a view of
	flowTag uint32
	// domain is the forwarding domain the packet entered the pipeline
	// from (the transmitting vport's Domain; 0 from the wire). It rides
	// the view across re-parses — header rewrites must not launder a
	// tenant's identity.
	domain int
	pktHdrs

	n     *NIC
	table int // table the next match runs in
	// onWire is the sender's completion hook. It fires exactly once on
	// every terminal path — including drops, as a real NIC completes the
	// send WQE regardless of the packet's fate.
	onWire func()
	vp     *VPort // transmitting vport, then the hairpin target
	rq     *RQ    // receive queue the disposition chose
	rss    uint32 // RSS hash of frame, computed at most once per form
	rssOK  bool
}

// putView clears a finished traversal and returns its view to the pool.
func (n *NIC) putView(v *pktView) {
	*v = pktView{}
	n.views.Put(v)
}

// parse points the view at frame and derives its header caches; the
// forwarding domain and the traversal state are left alone, so a rewritten
// frame (encap, decap, decrypt) re-parses in place.
func (v *pktView) parse(frame []byte, flowTag uint32) {
	v.frame, v.flowTag = frame, flowTag
	v.pktHdrs = pktHdrs{csumOK: true}
	v.rssOK = false
	eth, p, err := netpkt.ParseEth(frame)
	if err != nil {
		return
	}
	v.ethOK = true
	v.eth = eth
	if eth.EtherType != netpkt.EtherTypeIPv4 {
		return
	}
	ip, l4, err := netpkt.ParseIPv4(p)
	if err != nil {
		v.csumOK = false
		return
	}
	v.ipOK = true
	v.ip = ip
	if ip.IsFragment() && ip.FragOffset != 0 {
		return // no L4 header in non-first fragments
	}
	switch ip.Proto {
	case netpkt.ProtoUDP:
		if u, inner, err := netpkt.ParseUDP(l4); err == nil {
			v.l4OK = true
			v.sport, v.dport = u.SrcPort, u.DstPort
			if u.DstPort == netpkt.VXLANPort && !ip.IsFragment() {
				if vx, _, err := netpkt.ParseVXLAN(inner); err == nil {
					v.vxlan = true
					v.vni = vx.VNI
				}
			}
		}
	case netpkt.ProtoTCP:
		if t, _, err := netpkt.ParseTCP(l4); err == nil {
			v.l4OK = true
			v.sport, v.dport = t.SrcPort, t.DstPort
		}
	}
}

// rssHash returns the RSS hash of the current frame: TIR selection and the
// receive CQE both need it, and it is computed once.
func (v *pktView) rssHash() uint32 {
	if !v.rssOK {
		v.rss, v.rssOK = netpkt.RSSHash(v.frame), true
	}
	return v.rss
}

// sent fires the sender's completion hook, once.
func (v *pktView) sent() {
	if f := v.onWire; f != nil {
		v.onWire = nil
		f()
	}
}

// Matches reports whether the view satisfies every set field.
func (m Match) Matches(v *pktView) bool {
	if m.EtherType != nil && (!v.ethOK || v.eth.EtherType != *m.EtherType) {
		return false
	}
	if m.Proto != nil && (!v.ipOK || v.ip.Proto != *m.Proto) {
		return false
	}
	if m.SrcIP != nil && (!v.ipOK || v.ip.Src != *m.SrcIP) {
		return false
	}
	if m.DstIP != nil && (!v.ipOK || v.ip.Dst != *m.DstIP) {
		return false
	}
	if m.SrcPort != nil && (!v.l4OK || v.sport != *m.SrcPort) {
		return false
	}
	if m.DstPort != nil && (!v.l4OK || v.dport != *m.DstPort) {
		return false
	}
	if m.IsFragment != nil && (!v.ipOK || v.ip.IsFragment() != *m.IsFragment) {
		return false
	}
	if m.VNI != nil && (!v.vxlan || v.vni != *m.VNI) {
		return false
	}
	if m.FlowTag != nil && v.flowTag != *m.FlowTag {
		return false
	}
	return true
}

// Action is what a matching rule does to a packet: zero or more header and
// metadata manipulations followed by exactly one terminal disposition
// (ToVPort / ToWire / ToRQ / ToTIR / ToTable / Drop).
type Action struct {
	// Decap strips the outer Ethernet+IPv4+UDP+VXLAN encapsulation,
	// exposing the inner frame (the NIC's tunnel offload).
	Decap bool
	// Encap prepends a pre-built outer header blob to the frame.
	Encap []byte
	// SetFlowTag stamps the packet's metadata tag (the context ID used
	// for FLD-E tenant identification, §5.4).
	SetFlowTag *uint32
	// Policer drops non-conforming packets (ingress rate limiting).
	Policer *sim.TokenBucket
	// Shaper delays non-conforming packets (egress rate limiting).
	Shaper *sim.TokenBucket
	// Count increments the named eSwitch counter.
	Count string

	// Terminal dispositions; exactly one should be set.
	ToVPort *int // deliver to a vport's ingress table
	ToWire  bool // emit on the physical port
	ToRQ    *RQ  // deliver to a specific receive queue
	ToTIR   *TIR // RSS-spread across the TIR's receive queues
	ToTable *int // continue matching at another table
	Drop    bool
}

// Rule pairs a match with an action; rules in a table are evaluated in
// insertion order (priority order).
type Rule struct {
	Match  Match
	Action Action
}

// TIR spreads packets across receive queues by RSS hash (receive-side
// scaling).
type TIR struct {
	RQs []*RQ
}

func (t *TIR) pick(hash uint32) *RQ {
	return t.RQs[int(hash)%len(t.RQs)]
}

// ESwitch is the NIC's embedded switch: numbered match-action tables plus
// the vport registry. Table 0 is the wire-ingress root.
type ESwitch struct {
	nic    *NIC
	tables map[int][]Rule
	vports map[int]*VPort
	nextVP int

	// Counters holds per-rule Count action totals.
	Counters map[string]int64

	// loopback models the switch-internal bandwidth used when traffic
	// hairpins between two vports without touching the wire.
	loopback *sim.Resource
	// LoopbackRate is the hairpin bandwidth (defaults to 2x100G-class).
	LoopbackRate sim.BitRate

	tlm *eswTelemetry // nil unless the NIC has telemetry attached
}

func newESwitch(n *NIC) *ESwitch {
	e := &ESwitch{
		nic:          n,
		tables:       make(map[int][]Rule),
		vports:       make(map[int]*VPort),
		Counters:     make(map[string]int64),
		loopback:     sim.NewResource(n.eng),
		LoopbackRate: 200 * sim.Gbps,
	}
	e.vports[UplinkID] = &VPort{ID: UplinkID, nic: n, IngressTable: 0, EgressTable: 0}
	e.nextVP = 1
	return e
}

// AddVPort allocates a vport with fresh ingress/egress tables.
func (e *ESwitch) AddVPort() *VPort {
	id := e.nextVP
	e.nextVP++
	vp := &VPort{ID: id, nic: e.nic, IngressTable: 100 + id*10, EgressTable: 200 + id*10}
	e.vports[id] = vp
	return vp
}

// removeVPort retires a vport (VF teardown). Rules still pointing at it
// hit DropNoSuchVPort, like hardware steering to a destroyed function.
func (e *ESwitch) removeVPort(id int) { delete(e.vports, id) }

// crossDomain reports whether delivering the packet to a target in
// targetDomain would cross between two different tenant domains. The
// wire and the PF (domain 0) may exchange traffic with any function;
// only VF→other-VF movement is forbidden.
func (e *ESwitch) crossDomain(v *pktView, targetDomain int) bool {
	return v.domain != 0 && targetDomain != 0 && targetDomain != v.domain
}

// AddRule appends a rule to a table.
func (e *ESwitch) AddRule(table int, r Rule) {
	e.tables[table] = append(e.tables[table], r)
	if e.tlm != nil {
		e.tlm.table(table)
	}
}

// ClearTable removes all rules from a table.
func (e *ESwitch) ClearTable(table int) { delete(e.tables, table) }

// maxTableHops bounds GotoTable chains, like hardware loop protection.
const maxTableHops = 8

// process runs a view through the match-action pipeline from v.table and
// applies the terminal disposition, which fires v.onWire and recycles the
// view.
func (e *ESwitch) process(v *pktView) {
	for hop := 0; hop < maxTableHops; hop++ {
		rule := e.match(v.table, v)
		if rule == nil {
			e.drop(v, DropESwitchMiss)
			return
		}
		if e.tlm != nil {
			e.tlm.hits[v.table].Inc()
		}
		a := &rule.Action
		if a.Count != "" {
			e.Counters[a.Count]++
		}
		if a.Policer != nil && !a.Policer.Admit(len(v.frame)) {
			e.drop(v, DropPolicer)
			return
		}
		if a.Decap && !e.decap(v) {
			e.drop(v, DropDecapFailed)
			return
		}
		if a.Encap != nil {
			bufs := e.nic.eng.Bufs()
			nf := bufs.Get(len(a.Encap) + len(v.frame))
			copy(nf[copy(nf, a.Encap):], v.frame)
			bufs.Put(v.buf)
			v.buf = nf
			v.parse(nf, v.flowTag)
		}
		if a.SetFlowTag != nil {
			v.flowTag = *a.SetFlowTag
		}
		var disposition func(any)
		switch {
		case a.Drop:
			e.drop(v, DropRuleDrop)
			return
		case a.ToTable != nil:
			v.table = *a.ToTable
			continue
		case a.ToWire:
			disposition = viewToWire
		case a.ToVPort != nil:
			vp := e.vports[*a.ToVPort]
			if vp == nil {
				e.drop(v, DropNoSuchVPort)
				return
			}
			if e.crossDomain(v, vp.Domain) {
				e.drop(v, DropCrossDomain)
				return
			}
			v.vp, disposition = vp, viewHairpin
		case a.ToRQ != nil, a.ToTIR != nil:
			rq := a.ToRQ
			if rq == nil {
				rq = a.ToTIR.pick(v.rssHash())
			}
			if e.crossDomain(v, rq.domain()) {
				e.drop(v, DropCrossDomain)
				return
			}
			v.rq, disposition = rq, viewDeliver
		default:
			e.drop(v, DropNoDisposition)
			return
		}
		if a.Shaper != nil {
			if d := a.Shaper.Reserve(len(v.frame)); d > 0 {
				e.nic.eng.AfterArg(d, disposition, v)
				return
			}
		}
		disposition(v)
		return
	}
	e.drop(v, DropTableLoop)
}

// drop ends a traversal without a disposition.
func (e *ESwitch) drop(v *pktView, reason DropReason) {
	e.nic.dropFrame(reason, v.buf)
	v.sent()
	e.nic.putView(v)
}

// viewToWire emits the frame on the physical port, which takes over the
// sender's completion hook.
func viewToWire(a any) {
	v := a.(*pktView)
	n, frame, onWire := v.n, v.frame, v.onWire
	n.putView(v)
	n.transmitWire(frame, onWire)
}

// viewHairpin crosses the switch fabric toward another vport.
func viewHairpin(a any) {
	v := a.(*pktView)
	e := v.n.esw
	v.n.eng.AtArg(e.loopback.Acquire(e.LoopbackRate.Serialize(len(v.frame))), viewHairpinDone, v)
}

// viewHairpinDone: the frame left the sender; continue at the target
// vport's ingress table.
func viewHairpinDone(a any) {
	v := a.(*pktView)
	v.sent()
	v.table = v.vp.IngressTable
	v.n.esw.process(v)
}

// viewDeliver finalizes receive-side metadata and hands the packet to the
// chosen receive queue.
func viewDeliver(a any) {
	v := a.(*pktView)
	v.sent()
	v.rq.deliver(v.frame, v.buf, CQE{
		Opcode:     CQERecv,
		Last:       true,
		ChecksumOK: v.csumOK && v.ipOK,
		FlowTag:    v.flowTag,
		RSSHash:    v.rssHash(),
	})
	v.n.putView(v)
}

func (e *ESwitch) match(table int, v *pktView) *Rule {
	rules := e.tables[table]
	for i := range rules {
		if rules[i].Match.Matches(v) {
			return &rules[i]
		}
	}
	return nil
}

// decap strips outer Eth+IPv4+UDP+VXLAN and re-parses the inner frame.
func (e *ESwitch) decap(v *pktView) bool {
	if !v.vxlan {
		return false
	}
	_, p, err := netpkt.ParseEth(v.frame)
	if err != nil {
		return false
	}
	_, l4, err := netpkt.ParseIPv4(p)
	if err != nil {
		return false
	}
	_, inner, err := netpkt.ParseUDP(l4)
	if err != nil {
		return false
	}
	_, payload, err := netpkt.ParseVXLAN(inner)
	if err != nil {
		return false
	}
	v.parse(payload, v.flowTag)
	return true
}

// --- NIC egress/ingress glue ---------------------------------------------

// egress runs a frame transmitted by a vport through its egress table.
// onSent fires when the frame leaves (wire serialization started or
// hairpin delivered) — the NIC's transmit completion semantics.
func (n *NIC) egress(vp *VPort, frame []byte, flowTag uint32, onSent func()) {
	if vp == nil {
		vp = n.esw.vports[UplinkID]
	}
	n.Stats.TxPackets++
	n.Stats.TxBytes += int64(len(frame))
	v := n.views.Get()
	v.parse(frame, flowTag)
	v.n, v.buf, v.domain, v.vp, v.onWire = n, frame, vp.Domain, vp, onSent
	n.eng.AfterArg(n.Prm.PipelineDelay, viewEgress, v)
}

// viewEgress: the frame crossed the transmit pipeline.
func viewEgress(a any) {
	v := a.(*pktView)
	v.table = v.vp.EgressTable
	v.n.esw.process(v)
}

// transmitWire puts a frame on the physical port. Callers account
// TxPackets/TxBytes themselves (egress and the QP transport both reach
// here).
func (n *NIC) transmitWire(frame []byte, onSent func()) {
	if n.phy == nil {
		n.dropFrame(DropNoWire, frame)
		if onSent != nil {
			onSent()
		}
		return
	}
	n.phy.Send(frame, onSent)
}

// Ingress accepts a frame from the physical port (cable or switch): it
// queues on the receive engine and crosses the receive pipeline.
func (n *NIC) Ingress(frame []byte) {
	if n.downN > 0 {
		n.dropFrame(DropDeviceDown, frame)
		return
	}
	v := n.views.Get()
	v.n, v.frame, v.buf = n, frame, frame
	served := n.rxEngine.Acquire(n.Prm.RxPerPkt)
	n.eng.AtArg(served+n.Prm.PipelineDelay, viewIngress, v)
}

// viewIngress: the frame crossed the receive pipeline; steer it from the
// wire-ingress root table.
func viewIngress(a any) {
	v := a.(*pktView)
	n, frame := v.n, v.frame
	// RoCE transport packets bypass the match-action pipeline: the NIC's
	// hardware transport consumes them directly. They still count as port
	// receives.
	if bth, payload, ok := parseRoCE(frame); ok {
		n.putView(v)
		n.Stats.RxPackets++
		n.Stats.RxBytes += int64(len(frame))
		n.rdmaIngress(bth, payload, frame)
		return
	}
	v.parse(frame, 0)
	n.esw.process(v)
}
