// Package defrag implements the paper's IP-defragmentation inline
// accelerator (§7): an FLD-E AFU that reassembles fragmented IPv4 packets
// in the middle of the NIC's processing pipeline, so offloads that
// fragmentation breaks — RSS, L4 checksum, flow steering — work again on
// the reassembled packet.
package defrag

import (
	"flexdriver/internal/fld"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/sim"
)

// flowKey identifies a datagram being reassembled (RFC 791 tuple).
type flowKey struct {
	src, dst netpkt.IP
	proto    uint8
	id       uint16
}

// span is a received byte range [lo, hi).
type span struct{ lo, hi int }

// datagram tracks one in-progress reassembly.
type datagram struct {
	key      flowKey
	eth      netpkt.Eth
	ip       netpkt.IPv4 // from the first fragment (offset 0)
	haveEth  bool
	haveHead bool
	payload  []byte
	spans    []span
	totalLen int // payload bytes; -1 until the last fragment arrives
	deadline sim.Time
}

// Reassembler reconstructs IPv4 datagrams from fragments. It is the
// AFU's core data structure (a BRAM table in the hardware prototype).
type Reassembler struct {
	table   map[flowKey]*datagram
	Timeout sim.Duration
	// MaxEntries bounds the table; inserting beyond it evicts the
	// oldest entry (hardware has a fixed-size table).
	MaxEntries int
	order      []*datagram
	bufs       *sim.BufPool // recycles payload scratch buffers

	// Stats.
	Completed, Expired, Evicted, Malformed int64
}

// SetBufPool makes the reassembler draw its per-datagram payload scratch
// buffers from p instead of a pool of its own, returning each buffer when
// its datagram completes, expires, or is evicted. The scratch is strictly
// internal — emitted frames are always freshly built — so the pool's
// single-owner discipline holds by construction.
func (r *Reassembler) SetBufPool(p *sim.BufPool) { r.bufs = p }

// NewReassembler returns a table with the given timeout and capacity.
func NewReassembler(timeout sim.Duration, maxEntries int) *Reassembler {
	return &Reassembler{
		table:      make(map[flowKey]*datagram),
		Timeout:    timeout,
		MaxEntries: maxEntries,
		bufs:       sim.NewBufPool(),
	}
}

// Add consumes one Ethernet frame at virtual time now. For a non-final
// state it returns (nil, false). When the frame completes a datagram —
// or is not a fragment at all — it returns the full frame and true.
func (r *Reassembler) Add(frame []byte, now sim.Time) ([]byte, bool) {
	r.expire(now)
	eth, ipb, err := netpkt.ParseEth(frame)
	if err != nil || eth.EtherType != netpkt.EtherTypeIPv4 {
		return frame, true // not IP: pass through
	}
	ip, payload, err := netpkt.ParseIPv4(ipb)
	if err != nil {
		r.Malformed++
		return nil, false
	}
	if !ip.IsFragment() {
		return frame, true
	}

	k := flowKey{src: ip.Src, dst: ip.Dst, proto: ip.Proto, id: ip.ID}
	dg := r.table[k]
	if dg == nil {
		if len(r.table) >= r.MaxEntries {
			r.evictOldest()
		}
		dg = &datagram{key: k, totalLen: -1, deadline: now + r.Timeout}
		r.table[k] = dg
		r.order = append(r.order, dg)
	}
	off := int(ip.FragOffset)
	end := off + len(payload)
	if end > len(dg.payload) {
		grown := r.bufs.Get(end)
		copy(grown, dg.payload)
		r.bufs.Put(dg.payload)
		dg.payload = grown
	}
	copy(dg.payload[off:], payload)
	dg.insertSpan(span{off, end})
	if !ip.MoreFrags {
		dg.totalLen = end
	}
	if off == 0 {
		dg.eth, dg.ip, dg.haveEth, dg.haveHead = eth, ip, true, true
	}

	if dg.totalLen >= 0 && len(dg.spans) == 1 &&
		dg.spans[0].lo == 0 && dg.spans[0].hi >= dg.totalLen && dg.haveHead {
		out := dg.rebuild()
		r.remove(dg)
		r.Completed++
		return out, true
	}
	return nil, false
}

// insertSpan merges the new range into the sorted span list, reusing the
// list's backing array (normalize compacts in place).
func (d *datagram) insertSpan(s span) {
	d.spans = normalize(append(d.spans, s))
}

func normalize(in []span) []span {
	// Insertion sort + merge; span lists are tiny (a few fragments).
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].lo < in[j-1].lo; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
	out := in[:0]
	for _, s := range in {
		if n := len(out); n > 0 && s.lo <= out[n-1].hi {
			if s.hi > out[n-1].hi {
				out[n-1].hi = s.hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// rebuild emits the reassembled Ethernet frame with a fresh IPv4 header.
func (d *datagram) rebuild() []byte {
	h := d.ip
	h.MoreFrags = false
	h.FragOffset = 0
	h.TotalLen = uint16(netpkt.IPv4HeaderLen + d.totalLen)
	out := d.eth.Marshal(make([]byte, 0, netpkt.EthHeaderLen+int(h.TotalLen)))
	out = h.Marshal(out)
	return append(out, d.payload[:d.totalLen]...)
}

func (r *Reassembler) remove(dg *datagram) {
	r.bufs.Put(dg.payload)
	dg.payload = nil
	delete(r.table, dg.key)
	for i, e := range r.order {
		if e == dg {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *Reassembler) expire(now sim.Time) {
	for len(r.order) > 0 && r.order[0].deadline <= now {
		r.Expired++
		r.remove(r.order[0])
	}
}

func (r *Reassembler) evictOldest() {
	if len(r.order) > 0 {
		r.Evicted++
		r.remove(r.order[0])
	}
}

// AFU is the FLD-E defragmentation accelerator: fragments detour through
// it, reassembled packets return to the NIC pipeline tagged for the next
// match-action table.
type AFU struct {
	f   *fld.FLD
	eng *sim.Engine
	r   *Reassembler

	// Queue is the FLD transmit queue used for reassembled packets.
	Queue int

	// Forwarded counts packets sent back; Dropped counts credit stalls.
	Forwarded, Dropped int64
}

// NewAFU installs the defragmentation AFU. Its reassembly scratch buffers
// come from the engine's shared BufPool.
func NewAFU(f *fld.FLD, eng *sim.Engine, timeout sim.Duration, maxEntries int) *AFU {
	a := &AFU{f: f, eng: eng, r: NewReassembler(timeout, maxEntries)}
	a.r.SetBufPool(eng.Bufs())
	f.SetHandler(a)
	return a
}

// Reassembler exposes the table for inspection.
func (a *AFU) Reassembler() *Reassembler { return a.r }

// Receive implements fld.Handler.
func (a *AFU) Receive(data []byte, md fld.Metadata) {
	full, done := a.r.Add(data, a.eng.Now())
	if !done {
		return
	}
	// Return to the pipeline with the context tag so the NIC resumes at
	// the configured next table (§5.3 FLD-E high-level abstraction).
	if err := a.f.Send(a.Queue, full, fld.Metadata{Tag: md.Tag}); err != nil {
		a.Dropped++
		return
	}
	a.Forwarded++
}
