package swdriver

import (
	"flexdriver/internal/netpkt"
	"flexdriver/internal/tcp"
)

// TCPEndpoint is the socket-style software endpoint over the TCP
// data-path engine: an Ethernet port carries the frames, a tcp.Conn
// runs the byte-stream machinery, and the driver charges per-message
// CPU cost on send — the TCP counterpart of RDMAEndpoint.
type TCPEndpoint struct {
	drv  *Driver
	port *EthPort
	Conn *tcp.Conn

	remoteMAC netpkt.MAC
	remoteIP  netpkt.IP

	// OnReconnect fires after ReconnectTCPEndpoints resets this end —
	// stream consumers (e.g. an rpc.Decoder) must discard partial state
	// from the dead incarnation or they would splice corrupt frames.
	OnReconnect func()

	// DropAcksAfterN is a test-only defect injector: after N payload-
	// less (pure-ack / window-update) segments have been accepted on
	// ingress, every further one is silently discarded — the modeled
	// "dropped ack -> stalled connection" bug the scenario's
	// tcp-delivery invariant must catch. 0 disables it.
	DropAcksAfterN int64
	acksSeen       int64

	// SendFails counts sends refused because the connection was not
	// established (down between error and the watchdog's reconnect).
	SendFails int64
}

// TCPConfig sizes an endpoint: ring entries for the port, the rest
// passed through to tcp.Config.
type TCPConfig struct {
	TxEntries, RxEntries int // EthPort rings (default 512 each)
	Conn                 tcp.Config
}

// NewTCPEndpoint builds the endpoint: an Ethernet port with an own-IP
// steering rule, and a connection wired to transmit through it.
func (d *Driver) NewTCPEndpoint(cfg TCPConfig) *TCPEndpoint {
	if cfg.TxEntries == 0 {
		cfg.TxEntries = 512
	}
	if cfg.RxEntries == 0 {
		cfg.RxEntries = 512
	}
	e := &TCPEndpoint{drv: d}
	e.port = d.NewClientPort(EthPortConfig{TxEntries: cfg.TxEntries, RxEntries: cfg.RxEntries})
	e.Conn = tcp.New(d.eng, cfg.Conn)
	e.Conn.Transmit = func(seg tcp.Segment, payload []byte) {
		e.port.Send(tcp.BuildFrame(d.nic.MAC, e.remoteMAC, d.nic.IP, e.remoteIP, seg, payload))
	}
	e.port.OnReceive = func(frame []byte, _ RxMeta) {
		info, payload, ok := tcp.ParseFrame(frame)
		if !ok || info.Seg.DstPort != e.Conn.Config().SrcPort {
			return
		}
		if len(payload) == 0 && info.Seg.Flags&tcp.FlagFin == 0 {
			if e.acksSeen++; e.DropAcksAfterN > 0 && e.acksSeen > e.DropAcksAfterN {
				return // the planted defect: the ack path goes dark
			}
		}
		e.Conn.Ingress(info.Seg, payload)
	}
	return e
}

// Port exposes the carrying Ethernet port (for ring-state checks).
func (e *TCPEndpoint) Port() *EthPort { return e.port }

// Send queues one message on the stream, charging per-message CPU cost.
// A send on a down connection is counted and dropped — open-loop load
// does not block on recovery, same as the RDMA sidecar.
func (e *TCPEndpoint) Send(data []byte) {
	if e.drv.downN > 0 {
		e.drv.DownTxDrops++
		return
	}
	d := e.drv
	d.eng.After(d.cpu.Acquire(d.cpuCost(d.Prm.TxCost))-d.eng.Now(), func() {
		if e.Conn.Send(data) != nil {
			e.SendFails++
		}
	})
}

// ConnectTCPEndpoints learns both ends' addressing and establishes the
// connection. Call before traffic, from setup or a control barrier.
func ConnectTCPEndpoints(a, b *TCPEndpoint) {
	a.remoteMAC, a.remoteIP = b.drv.nic.MAC, b.drv.nic.IP
	b.remoteMAC, b.remoteIP = a.drv.nic.MAC, a.drv.nic.IP
	tcp.Connect(a.Conn, b.Conn)
}

// ReconnectTCPEndpoints re-establishes the pair after a transport
// failure (retry-exceeded Error), flushing each side's dead-incarnation
// state and notifying stream consumers — the ReconnectEndpoints
// analogue. Call from a control barrier: it touches both shards.
func ReconnectTCPEndpoints(a, b *TCPEndpoint) {
	tcp.Reconnect(a.Conn, b.Conn)
	for _, e := range []*TCPEndpoint{a, b} {
		if e.OnReconnect != nil {
			e.OnReconnect()
		}
	}
}
