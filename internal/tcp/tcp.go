// Package tcp is the testbed's TCP data-path engine: a byte-stream
// transport with cumulative acknowledgments, go-back-N retransmission
// under an RTO, receive-window flow control (zero-window stall, persist
// probes, window-update reopen) and FIN teardown. It runs on arq, the
// go-back-N sender of the RoCE transport in internal/nic/rdma.go: a
// bounded no-progress retry budget that escalates to an Error state the
// application heals by reconnecting (Reconnect). It adds dup-ack fast
// retransmit and an incarnation epoch that keeps a stale segment from
// one connection life from splicing into the next.
//
// The packet format is byte-compatible with a 20-byte TCP header
// (internal/netpkt can steer it by ports), with two testbed liberties:
// the checksum stays zero (the wire model injects its faults below L4,
// where the scenario invariants account for them) and the urgent
// pointer's low byte carries the connection epoch, the same reserved-
// field trick the RoCE BTH plays.
package tcp

import (
	"encoding/binary"
	"errors"

	"flexdriver/internal/arq"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

// TCP flag bits (the subset the engine generates).
const (
	FlagFin = 1 << 0
	FlagSyn = 1 << 1
	FlagPsh = 1 << 3 // set on zero-length persist probes: "ack me"
	FlagAck = 1 << 4
)

// HeaderLen is the fixed header size (no options).
const HeaderLen = 20

// Segment is one parsed TCP segment header.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	// Window is the advertised receive window, bytes (capped at 64 KiB
	// minus one by the 16-bit field; Config.Window stays within it).
	Window uint16
	// Epoch is the connection incarnation, carried in the urgent
	// pointer's low byte. A segment from a previous incarnation is
	// dropped on ingress, exactly like the RoCE BTH epoch.
	Epoch uint8
}

// Marshal appends the 20-byte header to b.
func (s Segment) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, s.SrcPort)
	b = binary.BigEndian.AppendUint16(b, s.DstPort)
	b = binary.BigEndian.AppendUint32(b, s.Seq)
	b = binary.BigEndian.AppendUint32(b, s.Ack)
	b = append(b, 5<<4, s.Flags)
	b = binary.BigEndian.AppendUint16(b, s.Window)
	b = binary.BigEndian.AppendUint16(b, 0) // checksum (unused in the model)
	return append(b, 0, s.Epoch)            // urgent pointer carries the epoch
}

// ParseSegment decodes a segment header and returns it with the payload.
// It is total on arbitrary bytes: any input either parses or returns ok
// == false, never panics.
func ParseSegment(b []byte) (s Segment, payload []byte, ok bool) {
	if len(b) < HeaderLen {
		return Segment{}, nil, false
	}
	off := int(b[12]>>4) * 4
	if off < HeaderLen || off > len(b) {
		return Segment{}, nil, false
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:])
	s.DstPort = binary.BigEndian.Uint16(b[2:])
	s.Seq = binary.BigEndian.Uint32(b[4:])
	s.Ack = binary.BigEndian.Uint32(b[8:])
	s.Flags = b[13]
	s.Window = binary.BigEndian.Uint16(b[14:])
	s.Epoch = b[19]
	return s, b[off:], true
}

// State is a connection's lifecycle state.
type State int

const (
	// StateEstablished carries data both ways.
	StateEstablished State = iota
	// StateFinWait: our FIN is queued or in flight; receiving continues.
	StateFinWait
	// StateClosed: both FINs sent, acked and received.
	StateClosed
	// StateError: the retry budget ran out with no progress. The
	// connection stays dead until Reconnect — the application-level
	// heal, like ReconnectQPs for an errored QP pair.
	StateError
)

func (s State) String() string {
	switch s {
	case StateEstablished:
		return "Established"
	case StateFinWait:
		return "FinWait"
	case StateClosed:
		return "Closed"
	default:
		return "Error"
	}
}

// Config sizes one connection endpoint.
type Config struct {
	SrcPort, DstPort uint16
	// MTU bounds one segment's payload (default 1024).
	MTU int
	// Window is the receive-buffer bound in bytes (default 16 KiB, max
	// 65535 — the 16-bit header field). The peer may never have more
	// than this many unconsumed bytes in flight.
	Window int
}

// The retransmission timeout, also the persist-probe interval, is sized
// to the testbed's microsecond RTTs, not a WAN's. maxRetries bounds
// consecutive no-progress retransmissions and unanswered persist probes
// before the connection enters Error (the QP's SynRetryExceeded shape).
const (
	rto        = 10 * sim.Microsecond
	maxRetries = 8
)

func (c *Config) fill() {
	if c.MTU == 0 {
		c.MTU = 1024
	}
	if c.Window == 0 {
		c.Window = 16 << 10
	}
	c.Window = min(c.Window, 0xffff)
}

// Stats counts a connection's transport events.
type Stats struct {
	SentSegs, RcvdSegs         int64
	Retransmits                int64 // RTO-driven go-back-N resends (segments)
	FastRetransmits            int64 // triple-dup-ack resends
	Probes                     int64 // zero-window persist probes sent
	ZeroWindowStalls           int64 // stalls: window closed, or too small with nothing in flight
	OutOfOrder                 int64 // segments ahead of rcvNxt (dropped, dup-acked)
	DupAcksSent, DupAcksRcvd   int64
	StaleEpoch                 int64 // segments from a previous incarnation
	AckedBytes, DeliveredBytes int64
	FlushedBytes               int64 // unacked bytes discarded by Error/Reconnect
	Errors                     int64 // retry-exceeded escalations
}

// Conn is one endpoint of a connection. All methods run on the owning
// host's events (ingress from the host's receive path, timers on the
// host's engine); only Connect/Reconnect touch both ends and belong
// in a control barrier, exactly like ConnectQPs/ReconnectQPs.
type Conn struct {
	cfg Config

	// Transmit hands a built segment to the owner (frame construction
	// and the NIC send path live there). Required before any traffic.
	Transmit func(seg Segment, payload []byte)
	// OnDeliver receives in-order stream bytes. The bytes count against
	// the receive window until Consume; a nil OnDeliver auto-consumes.
	OnDeliver func(p []byte)
	// OnError fires on retry-exceeded escalation, after the send queue
	// is flushed.
	OnError func()

	state State
	epoch uint8

	// Sender half: go-back-N over the byte stream, one unit per segment
	// (its payload; a FIN is the one unit without, one sequence number).
	snd     arq.Sender[[]byte]
	peerWnd int
	dupAcks int
	stalled bool // inside a zero-window stall episode
	probe   *sim.Timer

	// Receiver half.
	rcvNxt   uint32
	buffered int // delivered-not-consumed bytes, held against Window
	finRcvd  bool
	finSent  bool

	Stats Stats
}

// New builds one endpoint. Pair it with Connect before sending.
func New(eng *sim.Engine, cfg Config) *Conn {
	cfg.fill()
	c := &Conn{cfg: cfg, state: StateClosed}
	c.snd.Init(eng.NewTimer(rtoFire, c), rto)
	c.probe = eng.NewTimer(probeFire, c)
	return c
}

// Config returns the (defaults-filled) configuration.
func (c *Conn) Config() Config { return c.cfg }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Connect establishes a pair (the three-way handshake abstracted away,
// like ConnectQPs). Both ends start at sequence zero, epoch 1.
func Connect(a, b *Conn) {
	a.reset(1)
	b.reset(1)
	a.peerWnd = b.cfg.Window
	b.peerWnd = a.cfg.Window
}

// Reconnect tears down whatever incarnation a and b are in and
// establishes a fresh one: epochs advance past both ends' (so stale
// segments can never splice in), sequence spaces restart, and any
// unacknowledged send state is flushed and counted. Call from a control
// barrier: it touches both nodes.
func Reconnect(a, b *Conn) {
	e := a.epoch
	if b.epoch > e {
		e = b.epoch
	}
	e++
	if e == 0 { // epoch wrapped: 0 is reserved for "never connected"
		e = 1
	}
	a.reset(e)
	b.reset(e)
	a.peerWnd = b.cfg.Window
	b.peerWnd = a.cfg.Window
}

func (c *Conn) reset(epoch uint8) {
	c.snd.Flush(c.flushed)
	c.probe.Stop()
	c.state = StateEstablished
	c.epoch = epoch
	c.rcvNxt = 0
	c.buffered = 0
	c.dupAcks = 0
	c.stalled = false
	c.finRcvd, c.finSent = false, false
}

// flushed counts the bytes of a discarded (unacked or unsent) segment.
func (c *Conn) flushed(p *[]byte) { c.Stats.FlushedBytes += int64(len(*p)) }

// ErrNotEstablished is returned by Send on a closed, closing or errored
// connection.
var ErrNotEstablished = errors.New("tcp: connection not established")

// Send queues stream bytes, segmented at the MTU, and transmits as far
// as the peer's window allows. The bytes are copied.
func (c *Conn) Send(data []byte) error {
	if c.state != StateEstablished || c.finSent {
		return ErrNotEstablished
	}
	for len(data) > 0 {
		n := len(data)
		n = min(n, c.cfg.MTU)
		c.snd.Push(uint32(n), append([]byte(nil), data[:n]...))
		data = data[n:]
	}
	c.pump()
	return nil
}

// Close queues a FIN (consuming one sequence number). The connection
// reaches Closed once the FIN is acked and the peer's FIN has arrived.
func (c *Conn) Close() error {
	if c.state != StateEstablished || c.finSent {
		return ErrNotEstablished
	}
	c.finSent = true
	c.state = StateFinWait
	c.snd.Push(1, nil)
	c.pump()
	return nil
}

// Consume releases n delivered bytes back to the receive window and, if
// the window was closed, sends the window-update ack that reopens the
// peer's sender.
func (c *Conn) Consume(n int) {
	wasClosed := c.window() == 0
	c.buffered -= n
	c.buffered = max(c.buffered, 0)
	if wasClosed && c.window() > 0 && (c.state == StateEstablished || c.state == StateFinWait) {
		c.sendAck() // window update: un-stall the peer
	}
}

// window returns the current advertised receive window.
func (c *Conn) window() int {
	w := c.cfg.Window - c.buffered
	w = max(w, 0)
	return w
}

// pump transmits queued segments as far as the peer's window allows,
// arming the retransmission machinery.
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateFinWait {
		return
	}
	// Stall (and arm the persist timer) when the window is closed — or
	// merely too small for the next segment with nothing left in flight:
	// no ack is coming, so without a probe the flow would deadlock until
	// the RTO budget burned to Error.
	if seq, p := c.snd.Pump(c.fits, c.transmit); p != nil &&
		(c.peerWnd == 0 || int(seq-c.snd.Una) >= c.peerWnd || seq == c.snd.Una) {
		if !c.stalled {
			c.stalled = true
			c.Stats.ZeroWindowStalls++
		}
		c.armProbe()
	}
	c.snd.Arm()
}

// fits checks the window against the segment's *end*: a FIN occupies a
// sequence number but no window space (its payload is empty).
func (c *Conn) fits(seq uint32, p *[]byte) bool {
	return int(seq+uint32(len(*p))-c.snd.Una) <= c.peerWnd
}

// transmit sends a segment for the first time, which ends any stall.
func (c *Conn) transmit(seq uint32, p *[]byte) {
	c.stalled = false
	c.emit(seq, p)
}

// emit builds and transmits one segment, piggybacking the current ack
// and window.
func (c *Conn) emit(seq uint32, p *[]byte) {
	flags := uint8(FlagAck)
	if *p == nil {
		flags |= FlagFin
	}
	c.send(Segment{Seq: seq, Flags: flags}, *p)
}

func (c *Conn) send(seg Segment, payload []byte) {
	seg.SrcPort, seg.DstPort = c.cfg.SrcPort, c.cfg.DstPort
	seg.Ack = c.rcvNxt
	seg.Window = uint16(c.window())
	seg.Epoch = c.epoch
	c.Stats.SentSegs++
	c.Transmit(seg, payload)
}

func (c *Conn) sendAck() {
	c.send(Segment{Seq: c.snd.Nxt, Flags: FlagAck}, nil)
}

// rtoFire is the RTO timer's callback. A head the window never let out
// re-arms quietly: the persist machinery owns that escalation. Reset and
// Error stop the timer, so it never fires into another incarnation.
func rtoFire(a any) {
	c := a.(*Conn)
	switch c.snd.Timeout(maxRetries) {
	case arq.Exhausted:
		c.enterError()
		return
	case arq.Resend:
		c.Stats.Retransmits += int64(c.snd.Resend(c.resendFits, c.emit))
	}
	c.snd.Arm()
}

// resendFits lets go-back-N resend what a closed window still holds in
// flight, and no more than an open one admits.
func (c *Conn) resendFits(seq uint32, p *[]byte) bool {
	return c.peerWnd == 0 || c.fits(seq, p)
}

// isHead admits the oldest unacked segment alone: a fast retransmit
// resends just it, under the RTO already guarding it.
func (c *Conn) isHead(seq uint32, _ *[]byte) bool { return seq == c.snd.Una }

// armProbe starts the zero-window persist timer: a bare Psh segment
// that solicits a window-update ack. Unanswered probes consume the same
// retry budget as retransmissions, so a dead peer still escalates to
// Error instead of probing forever.
func (c *Conn) armProbe() {
	if !c.probe.Armed() {
		c.probe.Reset(rto)
	}
}

// probeFire is the persist timer's callback. Error and Closed leave
// nothing unsent, and Reconnect stops the timer.
func probeFire(a any) {
	c := a.(*Conn)
	seq, p := c.snd.Unsent()
	if p == nil {
		return
	}
	// The window opened enough for the next segment while the probe
	// was armed: resume the pump instead of probing.
	if c.fits(seq, p) {
		c.pump()
		return
	}
	if c.snd.Retry(maxRetries) {
		c.enterError()
		return
	}
	c.Stats.Probes++
	c.send(Segment{Seq: c.snd.Nxt, Flags: FlagAck | FlagPsh}, nil)
	c.armProbe()
}

// enterError is the retry-exceeded escalation: the send queue is
// flushed (those bytes will never complete on this incarnation — the
// application recovers them above the transport) and the connection
// waits dead for Reconnect.
func (c *Conn) enterError() {
	c.state = StateError
	c.Stats.Errors++
	c.snd.Flush(c.flushed)
	if c.OnError != nil {
		c.OnError()
	}
}

// Ingress processes one received segment. Call it from the owning
// host's receive path with the parsed header and payload.
func (c *Conn) Ingress(seg Segment, payload []byte) {
	if c.state == StateClosed || c.state == StateError {
		return
	}
	if seg.Epoch != c.epoch {
		c.Stats.StaleEpoch++
		return
	}
	c.Stats.RcvdSegs++

	// Sender half: cumulative ack and window processing. The
	// outstanding RTO event notices progress on its own: all-acked falls
	// idle, partial progress re-arms for the new oldest byte.
	c.peerWnd = int(seg.Window)
	if una := c.snd.Una; c.snd.Ack(seg.Ack, nil) {
		c.Stats.AckedBytes += int64(seg.Ack - una)
		c.dupAcks = 0
	} else if seg.Ack == c.snd.Una && c.snd.Una != c.snd.Nxt && len(payload) == 0 && seg.Flags&FlagFin == 0 {
		c.Stats.DupAcksRcvd++
		if c.dupAcks++; c.dupAcks == 3 {
			c.dupAcks = 0
			c.Stats.FastRetransmits += int64(c.snd.Resend(c.isHead, c.emit))
		}
	}

	// Receiver half: in-order delivery, out-of-order drop + dup-ack.
	fin := seg.Flags&FlagFin != 0
	seqLen := uint32(len(payload))
	if fin {
		seqLen++
	}
	switch {
	case seqLen == 0:
		// Pure ack, window update, or persist probe. Only a probe
		// (Psh) is answered, so acks never ping-pong.
		if seg.Flags&FlagPsh != 0 {
			c.sendAck()
		}
	case seg.Seq == c.rcvNxt:
		if len(payload) > 0 {
			if len(payload) > c.window() {
				// Beyond our advertised window (a retransmit raced a
				// shrinking window): drop, re-ack the current edge.
				c.Stats.OutOfOrder++
				c.sendDupAck()
				break
			}
			c.rcvNxt += uint32(len(payload))
			c.buffered += len(payload)
			c.Stats.DeliveredBytes += int64(len(payload))
			if c.OnDeliver != nil {
				c.OnDeliver(append([]byte(nil), payload...))
			} else {
				c.buffered -= len(payload)
			}
		}
		if fin {
			c.rcvNxt++
			c.finRcvd = true
		}
		c.sendAck()
	case int32(seg.Seq-c.rcvNxt) < 0:
		// Duplicate (our ack was lost): re-ack so the sender advances.
		c.sendDupAck()
	default:
		// Ahead of the stream: go-back-N receivers hold no reassembly
		// buffer — drop and dup-ack so the sender rewinds.
		c.Stats.OutOfOrder++
		c.sendDupAck()
	}

	c.maybeClose()
	c.pump()
}

func (c *Conn) sendDupAck() {
	c.Stats.DupAcksSent++
	c.sendAck()
}

// maybeClose finishes the teardown once our FIN is acked and the peer's
// has arrived.
func (c *Conn) maybeClose() {
	if c.finSent && c.finRcvd && c.snd.Una == c.snd.Nxt {
		c.state = StateClosed
	}
}

// FrameOverhead is the Eth+IPv4+TCP header bytes in front of the payload.
const FrameOverhead = netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + HeaderLen

// FrameInfo is a parsed TCP-in-IPv4-in-Ethernet frame's addressing.
type FrameInfo struct {
	Eth netpkt.Eth
	IP  netpkt.IPv4
	Seg Segment
}

// AppendHeaders appends the Eth+IPv4+TCP headers of a frame that will
// carry payloadLen bytes behind them. Every header byte is written, the
// IPv4 checksum included, so b may be a recycled sim.BufPool buffer; the
// caller appends the payload straight after.
func AppendHeaders(b []byte, srcMAC, dstMAC netpkt.MAC, srcIP, dstIP netpkt.IP, seg Segment, payloadLen int) []byte {
	b = netpkt.Eth{Dst: dstMAC, Src: srcMAC, EtherType: netpkt.EtherTypeIPv4}.Marshal(b)
	b = netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + HeaderLen + payloadLen), Proto: netpkt.ProtoTCP,
		Src: srcIP, Dst: dstIP}.Marshal(b)
	return seg.Marshal(b)
}

// BuildFrame wraps a segment in Eth+IPv4 headers between two NICs: one
// exactly-sized buffer, headers and payload each written into it once.
func BuildFrame(srcMAC, dstMAC netpkt.MAC, srcIP, dstIP netpkt.IP, seg Segment, payload []byte) []byte {
	b := AppendHeaders(make([]byte, 0, FrameOverhead+len(payload)), srcMAC, dstMAC, srcIP, dstIP, seg, len(payload))
	return append(b, payload...)
}

// ParseFrame decodes an Eth+IPv4+TCP frame. Non-IPv4 and non-TCP frames
// return ok == false; it never panics on arbitrary bytes.
func ParseFrame(frame []byte) (FrameInfo, []byte, bool) {
	var info FrameInfo
	eth, l3, err := netpkt.ParseEth(frame)
	if err != nil || eth.EtherType != netpkt.EtherTypeIPv4 {
		return info, nil, false
	}
	ip, l4, err := netpkt.ParseIPv4(l3)
	if err != nil || ip.Proto != netpkt.ProtoTCP {
		return info, nil, false
	}
	seg, payload, ok := ParseSegment(l4)
	if !ok {
		return info, nil, false
	}
	info.Eth, info.IP, info.Seg = eth, ip, seg
	return info, payload, true
}
