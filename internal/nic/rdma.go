package nic

import (
	"encoding/binary"
	"fmt"

	"flexdriver/internal/arq"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

// RoCE v2 framing: Eth + IPv4 + UDP(4791) + BTH, trailed by a 4-byte ICRC.
const (
	BTHLen          = 12
	ICRCLen         = 4
	RoCEOverhead    = netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.UDPHeaderLen + BTHLen + ICRCLen // 58 B
	defaultQPWindow = 128                                                                                 // outstanding packets per QP
)

// BTH opcodes (RC subset).
const (
	btSendFirst  = 0x00
	btSendMiddle = 0x01
	btSendLast   = 0x02
	btSendOnly   = 0x04
	btAck        = 0x11
	btNak        = 0x12
)

// BTH is the base transport header of a RoCE packet. Epoch rides in a
// reserved byte: it names the connection incarnation the packet belongs
// to, so a receiver never confuses a stale in-flight packet (delayed or
// duplicated on the wire across a reconnect) with traffic of the new
// connection — after a reconnect both PSN streams restart at zero, and
// without the epoch a leftover packet could alias into the fresh
// sequence space and corrupt a reassembling message.
type BTH struct {
	Opcode  uint8
	Epoch   uint8
	DestQPN uint32
	PSN     uint32
}

func (h BTH) marshal(b []byte) []byte {
	b = append(b, h.Opcode, h.Epoch, 0, 0)
	b = binary.BigEndian.AppendUint32(b, h.DestQPN)
	return binary.BigEndian.AppendUint32(b, h.PSN)
}

func parseBTH(b []byte) (BTH, []byte, error) {
	if len(b) < BTHLen {
		return BTH{}, nil, fmt.Errorf("nic: BTH too short (%d bytes)", len(b))
	}
	return BTH{
		Opcode:  b[0],
		Epoch:   b[1],
		DestQPN: binary.BigEndian.Uint32(b[4:]),
		PSN:     binary.BigEndian.Uint32(b[8:]),
	}, b[BTHLen:], nil
}

// parseRoCE recognizes RoCE v2 frames and returns the BTH and payload
// (ICRC stripped).
func parseRoCE(frame []byte) (BTH, []byte, bool) {
	eth, p, err := netpkt.ParseEth(frame)
	if err != nil || eth.EtherType != netpkt.EtherTypeIPv4 {
		return BTH{}, nil, false
	}
	ip, l4, err := netpkt.ParseIPv4(p)
	if err != nil || ip.Proto != netpkt.ProtoUDP {
		return BTH{}, nil, false
	}
	udp, rest, err := netpkt.ParseUDP(l4)
	if err != nil || udp.DstPort != netpkt.RoCEPort {
		return BTH{}, nil, false
	}
	bth, payload, err := parseBTH(rest)
	if err != nil || len(payload) < ICRCLen {
		return BTH{}, nil, false
	}
	return bth, payload[:len(payload)-ICRCLen], true
}

// QP is a reliable-connection queue pair. Its send work queue is a normal
// SQ whose descriptors carry whole messages; the NIC segments them into
// MTU-sized RoCE packets, tracks PSNs, and recovers from loss with
// go-back-N, exactly the transport offload FlexDriver borrows from the NIC
// (paper §5, FLD-R). The sender is an arq.Sender, one unit per PSN.
type QP struct {
	n   *NIC
	QPN uint32
	SQ  *SQ
	RQ  *RQ // receive queue, possibly shared among QPs (SRQ)
	MTU int

	remoteNIC *NIC
	remoteQPN uint32

	// state gates the transport: an Error-state QP drops sends and
	// arriving packets until ReconnectQPs re-establishes it. connEpoch is
	// the wire-visible incarnation number stamped into every BTH, so
	// packets of a dead connection are rejected instead of aliasing into
	// the restarted PSN space.
	state     QueueState
	connEpoch uint8

	snd arq.Sender[txPkt] // PSNs, retransmission queue and timer, retries

	// Receiver state.
	expPSN    uint32
	rxMsgLen  uint32 // bytes accumulated for the in-progress message
	nakedOnce bool
	// ACK coalescing: acknowledge every AckCoalesce completed messages,
	// with an idle timer bounding the delay.
	unackedMsgs int
	ackTimer    *sim.Timer
}

// txPkt is one packet in the retransmission queue: n bytes at off of its
// message, framed afresh by each emit. msg is the QP's pooled copy of the
// whole message, shared by its packets; the queue owns it, and the last
// packet puts it back on leaving (acks are cumulative and in order, so
// that packet leaves last).
type txPkt struct {
	msg          []byte
	off, n       uint32
	op           uint8
	last, signal bool // last packet of its message; signaled message
	wqeIdx       uint16
}

// QPConfig configures a queue pair.
type QPConfig struct {
	SQ  *SQ
	RQ  *RQ
	MTU int // defaults to Params.RoCEMTU
}

// CreateQP allocates a queue pair bound to the given work queues.
func (n *NIC) CreateQP(cfg QPConfig) *QP {
	qp := &QP{n: n, QPN: n.allocQN(), SQ: cfg.SQ, RQ: cfg.RQ, MTU: cfg.MTU}
	if qp.MTU == 0 {
		qp.MTU = n.Prm.RoCEMTU
	}
	qp.snd.Init(n.eng.NewTimer(qpRTOExpired, qp), n.Prm.RetransmitTimeout)
	qp.ackTimer = n.eng.NewTimer(qpAckDelayExpired, qp)
	if cfg.SQ != nil {
		cfg.SQ.QP = qp
	}
	n.qps[qp.QPN] = qp
	return qp
}

// ConnectQPs wires two queue pairs into an established RC connection.
func ConnectQPs(a, b *QP) {
	a.remoteNIC, a.remoteQPN = b.n, b.QPN
	b.remoteNIC, b.remoteQPN = a.n, a.QPN
	// Align the two ends on one connection epoch (reset bumps each side's
	// epoch, so a reconnect lands on a number no in-flight packet carries).
	a.connEpoch = max(a.connEpoch, b.connEpoch)
	b.connEpoch = a.connEpoch
}

// send accepts one message from the SQ, borrowed, and segments one pooled
// copy of it into the retransmission queue.
func (qp *QP) send(idx uint32, wqe SendWQE, data []byte) {
	if qp.remoteNIC == nil {
		qp.n.drop(DropQPNotConnected)
		return
	}
	if qp.state != QueueReady {
		qp.n.drop(DropQPError)
		return
	}
	msg := qp.n.eng.Bufs().Clone(data)
	for lo := 0; lo == 0 || lo < len(data); lo += qp.MTU {
		hi := min(lo+qp.MTU, len(data))
		op := uint8(btSendMiddle)
		switch {
		case lo == 0 && hi == len(data):
			op = btSendOnly
		case lo == 0:
			op = btSendFirst
		case hi == len(data):
			op = btSendLast
		}
		qp.snd.Push(1, txPkt{msg: msg, off: uint32(lo), n: uint32(hi - lo), op: op,
			last: hi == len(data), signal: wqe.Signal, wqeIdx: uint16(idx)})
	}
	qp.pump()
}

// frame marshals Eth + IPv4 + UDP + BTH + payload + ICRC placeholder front
// to back into one BufPool buffer: the segment is copied once.
func (qp *QP) frame(srcPort uint16, op uint8, psn uint32, payload []byte) []byte {
	l4 := BTHLen + len(payload) + ICRCLen
	b := qp.n.eng.Bufs().Get(RoCEOverhead + len(payload))[:0]
	b = netpkt.Eth{Dst: qp.remoteNIC.MAC, Src: qp.n.MAC, EtherType: netpkt.EtherTypeIPv4}.Marshal(b)
	b = netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + netpkt.UDPHeaderLen + l4), Proto: netpkt.ProtoUDP,
		Src: qp.n.IP, Dst: qp.remoteNIC.IP}.Marshal(b)
	b = netpkt.UDP{SrcPort: srcPort, DstPort: netpkt.RoCEPort, Length: uint16(netpkt.UDPHeaderLen + l4)}.Marshal(b)
	b = BTH{Opcode: op, Epoch: qp.connEpoch, DestQPN: qp.remoteQPN, PSN: psn}.marshal(b)
	b = append(b, payload...)
	return append(b, 0, 0, 0, 0) // ICRC placeholder
}

// pump transmits packets allowed by the window and guards them with the
// retransmission timer.
func (qp *QP) pump() {
	qp.snd.Pump(qp.inWindow, qp.emit)
	qp.snd.Arm()
}

// inWindow admits PSNs less than a window ahead of the oldest unacked.
func (qp *QP) inWindow(psn uint32, _ *txPkt) bool {
	return int32(psn-qp.snd.Una) < defaultQPWindow
}

// emit frames the packet for the wire, which owns the frame: every
// transmission and retransmission is framed afresh from the message.
func (qp *QP) emit(psn uint32, p *txPkt) {
	qp.transmit(qp.frame(0xC000|uint16(qp.QPN&0x3fff), p.op, psn, p.msg[p.off:p.off+p.n]))
}

// release puts back the message once its last packet leaves the queue.
func (qp *QP) release(p *txPkt) {
	if p.last {
		qp.n.eng.Bufs().Put(p.msg)
	}
}

// transmit emits a RoCE frame toward the remote NIC — over the wire, or
// through the eSwitch hairpin when both QPs share one NIC (the paper's
// local experiments).
func (qp *QP) transmit(frame []byte) {
	qp.n.Stats.TxPackets++
	qp.n.Stats.TxBytes += int64(len(frame))
	if qp.remoteNIC == qp.n {
		n := qp.n
		v := n.views.Get()
		v.n, v.frame, v.buf = n, frame, frame
		n.eng.AtArg(n.esw.loopback.Acquire(n.esw.LoopbackRate.Serialize(len(frame))), rdmaHairpinDone, v)
		return
	}
	qp.n.transmitWire(frame, nil)
}

// rdmaHairpinDone: a transport frame crossed the switch fabric toward a QP
// of the same NIC; it still has the receive pipeline to cross.
func rdmaHairpinDone(a any) {
	v := a.(*pktView)
	v.n.eng.AfterArg(v.n.Prm.PipelineDelay, rdmaHairpinIngress, v)
}

// rdmaHairpinIngress hands the hairpinned frame to the transport.
func rdmaHairpinIngress(a any) {
	v := a.(*pktView)
	n, frame := v.n, v.frame
	n.putView(v)
	bth, payload, _ := parseRoCE(frame) // the transport framed it
	n.rdmaIngress(bth, payload, frame)
}

// qpRTOExpired fires one retransmission timeout after the timer was
// armed: with no progress since, go back N, bounded by the retry budget
// (IB retry_cnt analogue). Error and reset stop the timer.
func qpRTOExpired(a any) {
	qp := a.(*QP)
	switch qp.snd.Timeout(qp.n.Prm.MaxRetransmits) {
	case arq.Exhausted:
		qp.n.drop(DropRDMATimeout)
		qp.enterError(SynRetryExceeded)
		return
	case arq.Resend:
		qp.n.drop(DropRDMATimeout)
		qp.resend()
	}
	qp.snd.Arm()
}

// State reports the QP's operational state.
func (qp *QP) State() QueueState { return qp.state }

// enterError moves the QP to the Error state: the retransmission queue
// is flushed with one error CQE per in-flight message, and all further
// traffic is dropped until ReconnectQPs.
func (qp *QP) enterError(syndrome uint8) {
	if qp.state == QueueError {
		return
	}
	qp.state = QueueError
	qp.n.Stats.QueueErrors++
	qp.snd.Flush(func(p *txPkt) {
		qp.cqe(CQEError, syndrome, p)
		qp.release(p)
	})
}

// cqe writes the send-side completion of the message p is the last
// packet of.
func (qp *QP) cqe(op, syndrome uint8, p *txPkt) {
	if p.last && qp.SQ != nil && qp.SQ.CQ != nil {
		qp.SQ.CQ.Push(CQE{Opcode: op, Syndrome: syndrome, Last: true, Index: p.wqeIdx,
			Queue: qp.SQ.ID, ByteCount: uint32(len(p.msg)), RemoteQPN: qp.QPN})
	}
}

// reset returns the QP to a freshly-established state. The connection
// epoch advances so the wire can tell the new incarnation's packets from
// leftovers of the old one (ConnectQPs re-aligns both ends).
func (qp *QP) reset() {
	if qp.state == QueueError {
		qp.n.Stats.QueueRecoveries++
	}
	qp.state = QueueReady
	qp.connEpoch++
	qp.snd.Flush(qp.release)
	qp.expPSN = 0
	qp.rxMsgLen = 0
	qp.nakedOnce = false
	qp.unackedMsgs = 0
}

// ReconnectQPs is the driver-initiated recovery for an RC connection
// whose end(s) entered the Error state: both QPs are torn down to a
// freshly-established connection with the same QPNs (the modify-QP
// RESET->INIT->RTR->RTS cycle real drivers perform).
func ReconnectQPs(a, b *QP) {
	a.reset()
	b.reset()
	ConnectQPs(a, b)
}

// resend goes back N: every unacknowledged packet the window holds, in
// order.
func (qp *QP) resend() {
	qp.snd.Resend(qp.inWindow, qp.emit)
	qp.snd.Pump(qp.inWindow, qp.emit)
}

// rdmaIngress dispatches a transport packet to its destination QP.
func (n *NIC) rdmaIngress(bth BTH, payload, buf []byte) {
	qp := n.qps[bth.DestQPN]
	if qp == nil {
		n.dropFrame(DropRDMAUnknownQPN, buf)
		return
	}
	qp.receive(bth, payload, buf)
}

// receive handles one transport packet (data or ACK/NAK).
func (qp *QP) receive(bth BTH, payload, buf []byte) {
	switch {
	case qp.state != QueueReady:
		qp.n.dropFrame(DropQPError, buf)
	case bth.Epoch != qp.connEpoch:
		// A leftover of a previous connection incarnation, still in
		// flight (wire delay or duplication) across a reconnect. Its PSN
		// belongs to the old sequence space; accepting it would corrupt
		// the restarted stream.
		qp.n.dropFrame(DropRDMAStaleEpoch, buf)
	case bth.Opcode == btAck:
		qp.n.eng.Bufs().Put(buf)
		qp.handleAck(bth.PSN)
	case bth.Opcode == btNak:
		qp.n.eng.Bufs().Put(buf)
		qp.handleNak(bth.PSN)
	default:
		qp.handleData(bth, payload, buf)
	}
}

func (qp *QP) handleData(bth BTH, payload, buf []byte) {
	if bth.PSN != qp.expPSN {
		qp.n.eng.Bufs().Put(buf)
		if int32(bth.PSN-qp.expPSN) < 0 {
			// Duplicate from a retransmit burst: re-ack so the sender
			// advances.
			qp.sendCtl(btAck, qp.expPSN-1)
			return
		}
		// Gap: NAK once per loss event.
		if !qp.nakedOnce {
			qp.nakedOnce = true
			qp.n.drop(DropRDMAOutOfOrder)
			qp.sendCtl(btNak, qp.expPSN)
		}
		return
	}
	qp.nakedOnce = false
	qp.expPSN++
	last := bth.Opcode == btSendLast || bth.Opcode == btSendOnly
	qp.rxMsgLen += uint32(len(payload))
	msgLen := qp.rxMsgLen
	if last {
		qp.rxMsgLen = 0
	}
	if qp.RQ != nil {
		op := uint8(CQERecvFrag)
		if last {
			op = CQERecv
		}
		// The CQE's QPN field carries the *local* QP the message
		// arrived on, so a shared receive queue's consumer can demux.
		cqe := CQE{Opcode: op, Last: last, ChecksumOK: true,
			RemoteQPN: qp.QPN, FlowTag: msgLen}
		qp.RQ.deliver(payload, buf, cqe)
	} else {
		qp.n.eng.Bufs().Put(buf)
	}
	if last {
		qp.unackedMsgs++
		coalesce := qp.n.Prm.AckCoalesce
		coalesce = max(coalesce, 1)
		if qp.unackedMsgs >= coalesce {
			qp.ackNow()
		} else if !qp.ackTimer.Armed() {
			// Bound the ACK delay so the sender's completions and
			// retransmission timer stay healthy under light load.
			qp.ackTimer.Reset(qp.n.Prm.AckDelay)
		}
	}
}

// qpAckDelayExpired acknowledges whatever completed since the last ACK.
func qpAckDelayExpired(a any) {
	qp := a.(*QP)
	if qp.unackedMsgs > 0 {
		qp.ackNow()
	}
}

// ackNow acknowledges everything received so far.
func (qp *QP) ackNow() {
	qp.unackedMsgs = 0
	qp.sendCtl(btAck, qp.expPSN-1)
}

// sendCtl emits an ACK or NAK for the remote sender.
func (qp *QP) sendCtl(op uint8, psn uint32) {
	if qp.remoteNIC == nil {
		return
	}
	qp.transmit(qp.frame(0xC000, op, psn, nil))
}

// handleAck releases the packets up to psn and writes send completions
// for finished, signaled messages. An ACK for a PSN never sent is ignored.
func (qp *QP) handleAck(psn uint32) {
	if qp.snd.Ack(psn+1, qp.acked) {
		qp.pump()
	}
}

// acked completes one acknowledged packet.
func (qp *QP) acked(p *txPkt) {
	if p.signal {
		qp.cqe(CQESend, 0, p)
	}
	qp.release(p)
}

// handleNak acknowledges the packets before the receiver's expected PSN
// and goes back N from it.
func (qp *QP) handleNak(psn uint32) {
	if psn == qp.snd.Una || qp.snd.Ack(psn, qp.acked) {
		qp.resend()
	}
}

// Outstanding reports unacknowledged packets (tests).
func (qp *QP) Outstanding() int { return int(qp.snd.Nxt - qp.snd.Una) }
