package iotauth

import (
	"flexdriver/internal/fld"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

// AFU is the IoT token-authentication offload: 8 processing units
// validating CoAP-carried JWTs, with a linear per-tenant HMAC key table
// indexed by the NIC-assigned flow tag (paper §7: "The accelerator only
// needs a linear table of HMAC keys, indexed by the tag").
type AFU struct {
	f   *fld.FLD
	eng *sim.Engine
	pus []*sim.Resource

	// keys is the per-tenant key table; index = context tag.
	keys [][]byte

	// PerPacket is each processing unit's service time. The default
	// hits the published design point: 20 Mpps for 256 B packets with
	// 8 units (2.5 Mpps per unit).
	PerPacket sim.Duration

	// MaxBacklog bounds how far ahead a processing unit may be booked;
	// the AFU drops beyond it (it may not backpressure FLD, §5.5, so
	// excess offered load is "selectively dropped on their own").
	MaxBacklog sim.Duration

	// Overflow counts packets dropped by the backlog bound.
	Overflow int64

	// Queue is the FLD transmit queue for validated packets.
	Queue int

	// Stats.
	Valid, Invalid, NoKey, Malformed, Dropped int64
	// ValidBytes counts bytes of admitted traffic per tenant tag.
	ValidBytes map[uint32]int64
}

// NewAFU installs the authentication offload with n processing units.
func NewAFU(f *fld.FLD, eng *sim.Engine, n int) *AFU {
	a := &AFU{f: f, eng: eng,
		PerPacket:  400 * sim.Nanosecond,
		MaxBacklog: 20 * sim.Microsecond,
		ValidBytes: make(map[uint32]int64),
	}
	for i := 0; i < n; i++ {
		a.pus = append(a.pus, sim.NewResource(eng))
	}
	f.SetHandler(a)
	return a
}

// SetKey installs tenant tag's HMAC key.
func (a *AFU) SetKey(tag uint32, key []byte) {
	for int(tag) >= len(a.keys) {
		a.keys = append(a.keys, nil)
	}
	a.keys[tag] = key
}

// Receive implements fld.Handler: validate and forward or drop. The packet
// waits for its processing unit, so it leaves the borrowed buffer.
func (a *AFU) Receive(data []byte, md fld.Metadata) {
	pu := a.pus[0]
	for _, p := range a.pus[1:] {
		if p.BusyUntil() < pu.BusyUntil() {
			pu = p
		}
	}
	if a.MaxBacklog > 0 && pu.BusyUntil() > a.eng.Now()+a.MaxBacklog {
		a.Overflow++
		return
	}
	data = append([]byte(nil), data...)
	a.eng.After(pu.Acquire(a.PerPacket)-a.eng.Now(), func() {
		if !a.validate(data, md.Tag) {
			return
		}
		if err := a.f.Send(a.Queue, data, fld.Metadata{Tag: md.Tag}); err != nil {
			a.Dropped++
			return
		}
		a.Valid++
		a.ValidBytes[md.Tag] += int64(len(data))
	})
}

// validate extracts the JWT from the CoAP payload and verifies it against
// the tenant's key.
func (a *AFU) validate(frame []byte, tag uint32) bool {
	var key []byte
	if int(tag) < len(a.keys) {
		key = a.keys[tag]
	}
	if key == nil {
		a.NoKey++
		return false
	}
	eth, ipb, err := netpkt.ParseEth(frame)
	if err != nil || eth.EtherType != netpkt.EtherTypeIPv4 {
		a.Malformed++
		return false
	}
	_, l4, err := netpkt.ParseIPv4(ipb)
	if err != nil {
		a.Malformed++
		return false
	}
	_, coapBytes, err := netpkt.ParseUDP(l4)
	if err != nil {
		a.Malformed++
		return false
	}
	msg, err := Parse(coapBytes)
	if err != nil {
		a.Malformed++
		return false
	}
	token, body := splitToken(msg.Payload)
	if token == "" {
		a.Malformed++
		return false
	}
	if _, err := VerifyToken(key, token, 0); err != nil {
		a.Invalid++
		return false
	}
	_ = body
	return true
}

// splitToken separates "token\npayload" CoAP message bodies.
func splitToken(payload []byte) (string, []byte) {
	for i, b := range payload {
		if b == '\n' {
			return string(payload[:i]), payload[i+1:]
		}
	}
	return string(payload), nil
}
