package virtio

import (
	"encoding/binary"
	"fmt"

	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// Queue indices for virtio-net.
const (
	RxQueue = 0
	TxQueue = 1
)

// queueState is the device-side view of one virtqueue.
type queueState struct {
	size      int
	descBase  uint64 // PCIe addresses of the three ring regions
	availBase uint64
	usedBase  uint64

	lastAvail uint16 // next avail entry to consume
	usedIdx   uint16
	pumping   bool
	repump    bool // a notify arrived while pumping

	// rx: prefetched free chains (head ids) the device may fill.
	freeHeads sim.FIFO[uint16]
	backlog   sim.FIFO[[]byte] // pooled frames waiting for free rx chains
}

// NetDeviceParams model the device's processing costs.
type NetDeviceParams struct {
	PerPacket     sim.Duration
	PipelineDelay sim.Duration
}

// DefaultNetDeviceParams returns virtio-NIC-class constants.
func DefaultNetDeviceParams() NetDeviceParams {
	return NetDeviceParams{
		PerPacket:     20 * sim.Nanosecond,
		PipelineDelay: 200 * sim.Nanosecond,
	}
}

// NetDevice is a virtio-net adapter: two virtqueues, a notify BAR, and a
// network port. It is intentionally feature-poor compared to the
// ConnectX-class model — no eSwitch, no RDMA, no shaping — which is
// exactly the trade the paper describes for portability.
type NetDevice struct {
	Name string
	Prm  NetDeviceParams

	eng    *sim.Engine
	port   *pcie.Port
	queues [2]*queueState
	engine *sim.Resource

	link *nic.Segment // this device's transmit direction of its cable

	// Interrupt, when set, fires after the device publishes a used-ring
	// update for the given queue (MSI-X stand-in for passive memories).
	Interrupt func(queue int)

	// Stats.
	TxPackets, RxPackets int64
	Drops                map[string]int64
}

// NewNetDevice returns a device bound to the engine.
func NewNetDevice(name string, eng *sim.Engine, prm NetDeviceParams) *NetDevice {
	return &NetDevice{
		Name:   name,
		Prm:    prm,
		eng:    eng,
		engine: sim.NewResource(eng),
		Drops:  make(map[string]int64),
	}
}

// AttachPCIe connects the device to a fabric.
func (d *NetDevice) AttachPCIe(fab *pcie.Fabric, cfg pcie.LinkConfig) *pcie.Port {
	d.port = fab.Attach(d, cfg)
	return d.port
}

// ConfigureQueue programs one virtqueue's ring addresses (the driver's
// "queue address" registers).
func (d *NetDevice) ConfigureQueue(q, size int, descBase, availBase, usedBase uint64) {
	if q != RxQueue && q != TxQueue {
		panic(fmt.Sprintf("virtio: no such queue %d", q))
	}
	d.queues[q] = &queueState{size: size, descBase: descBase, availBase: availBase, usedBase: usedBase}
}

// PCIeName implements pcie.Device.
func (d *NetDevice) PCIeName() string { return d.Name }

// BARSize implements pcie.Device: just the notify registers.
func (d *NetDevice) BARSize() uint64 { return 0x1000 }

// NotifyOffset returns the BAR offset of a queue's notify register.
func NotifyOffset(q int) uint64 { return uint64(q) * 4 }

// MMIORead implements pcie.Device: the notify registers read as zero.
func (d *NetDevice) MMIORead(offset uint64, dst []byte) bool {
	clear(dst)
	return true
}

// MMIOWrite implements pcie.Device: queue notifications.
func (d *NetDevice) MMIOWrite(offset uint64, data []byte) {
	q := int(offset / 4)
	if q != RxQueue && q != TxQueue || d.queues[q] == nil {
		d.Drops["notify-bad-queue"]++
		return
	}
	d.pump(q)
}

// pump consumes newly available entries on a queue.
func (d *NetDevice) pump(q int) {
	st := d.queues[q]
	if st.pumping {
		st.repump = true
		return
	}
	st.pumping = true
	// Read the avail header to learn the driver's producer index.
	d.read(st.availBase, 4, func(hdr []byte) {
		if hdr == nil {
			st.pumping = false
			return
		}
		d.consumeAvail(q, binary.LittleEndian.Uint16(hdr[2:]))
	})
}

// read fetches n bytes at addr for fn; a read that failed counts a
// dma-error and hands fn nil.
func (d *NetDevice) read(addr uint64, n int, fn func(data []byte)) {
	d.port.Read(addr, n, func(c pcie.Completion) {
		if !c.OK() {
			d.Drops["dma-error"]++
			c.Data = nil
		}
		fn(c.Data)
	})
}

// consumeAvail walks avail entries up to idx, fetching ring entries in
// batched reads and processing descriptor chains concurrently — the
// pipelining a real device applies so per-entry PCIe latency does not
// bound packet rate.
func (d *NetDevice) consumeAvail(q int, idx uint16) {
	st := d.queues[q]
	if st.lastAvail == idx {
		st.pumping = false
		// New rx chains may unblock backlogged frames.
		if q == RxQueue {
			d.drainRxBacklog()
		}
		// A notify that arrived mid-pump may carry fresh entries.
		if st.repump {
			st.repump = false
			d.pump(q)
		}
		return
	}
	n := int(idx - st.lastAvail)
	slot := int(st.lastAvail % uint16(st.size))
	if slot+n > st.size {
		n = st.size - slot // don't wrap within one read
	}
	d.read(st.availBase+4+uint64(slot)*2, n*2, func(heads []byte) {
		if heads == nil {
			// Nothing was consumed: the next notify reads these entries again.
			st.pumping = false
			return
		}
		st.lastAvail += uint16(n)
		for i := 0; i < n; i++ {
			head := binary.LittleEndian.Uint16(heads[i*2:])
			if q == RxQueue {
				st.freeHeads.Push(head)
				continue
			}
			d.readChain(st, head, nil, 0, func(frame []byte, ok bool) { d.transmit(head, frame, ok) })
		}
		d.consumeAvail(q, idx)
	})
}

// readChain gathers a descriptor chain's buffers into one pooled frame;
// ok is false when the chain could not be read to its end.
func (d *NetDevice) readChain(st *queueState, idx uint16, acc []byte, hops int, done func(frame []byte, ok bool)) {
	if hops > 16 {
		d.Drops["chain-too-long"]++
		done(acc, false)
		return
	}
	d.read(st.descBase+uint64(idx)*DescSize, DescSize, func(b []byte) {
		if b == nil {
			done(acc, false)
			return
		}
		desc, _ := ParseDesc(b) // a whole descriptor was read
		d.read(desc.Addr, int(desc.Len), func(buf []byte) {
			switch {
			case buf == nil:
				done(acc, false)
			case desc.Flags&DescFlagNext != 0:
				d.readChain(st, desc.Next, d.gather(acc, buf), hops+1, done)
			default:
				done(d.gather(acc, buf), true)
			}
		})
	})
}

// gather returns a pooled buffer holding acc then buf, putting acc back.
func (d *NetDevice) gather(acc, buf []byte) []byte {
	b := d.eng.Bufs().Get(len(acc) + len(buf))
	copy(b[copy(b, acc):], buf)
	d.eng.Bufs().Put(acc)
	return b
}

// transmit puts a gathered frame on the link and retires the chain: one
// event, at the end of the engine's slot plus the pipeline latency. A
// chain that could not be read is retired unsent.
func (d *NetDevice) transmit(head uint16, frame []byte, ok bool) {
	if !ok {
		d.eng.Bufs().Put(frame)
		d.publishUsed(TxQueue, UsedElem{ID: uint32(head)})
		return
	}
	end := d.engine.Acquire(d.Prm.PerPacket)
	d.eng.After(end+d.Prm.PipelineDelay-d.eng.Now(), func() {
		d.TxPackets++
		if d.link != nil {
			d.link.Send(frame, nil)
		} else {
			d.Drops["no-link"]++
			d.eng.Bufs().Put(frame)
		}
		d.publishUsed(TxQueue, UsedElem{ID: uint32(head)})
	})
}

// deliver handles a frame arriving from the link.
func (d *NetDevice) deliver(frame []byte) {
	st := d.queues[RxQueue]
	if st == nil {
		d.Drops["rx-unconfigured"]++
		d.eng.Bufs().Put(frame)
		return
	}
	end := d.engine.Acquire(d.Prm.PerPacket)
	d.eng.After(end+d.Prm.PipelineDelay-d.eng.Now(), func() {
		if st.backlog.Len() >= 256 {
			d.Drops["rx-overflow"]++
			d.eng.Bufs().Put(frame)
			return
		}
		st.backlog.Push(frame)
		d.drainRxBacklog()
		if st.backlog.Len() > 0 && !st.pumping {
			d.pump(RxQueue) // look for freshly posted chains
		}
	})
}

// drainRxBacklog fills free rx chains with backlogged frames.
func (d *NetDevice) drainRxBacklog() {
	st := d.queues[RxQueue]
	for st.backlog.Len() > 0 && st.freeHeads.Len() > 0 {
		d.fillChain(st, st.freeHeads.Pop(), st.backlog.Pop())
	}
}

// fillChain scatters a frame into a writable descriptor chain and
// publishes the used entry.
func (d *NetDevice) fillChain(st *queueState, head uint16, frame []byte) {
	var step func(idx uint16, remaining []byte, hops int)
	step = func(idx uint16, remaining []byte, hops int) {
		if hops > 16 {
			d.Drops["chain-too-long"]++
			d.eng.Bufs().Put(frame)
			return
		}
		d.read(st.descBase+uint64(idx)*DescSize, DescSize, func(b []byte) {
			if b == nil {
				d.eng.Bufs().Put(frame)
				return
			}
			desc, _ := ParseDesc(b) // a whole descriptor was read
			if desc.Flags&DescFlagWrite == 0 {
				d.Drops["rx-bad-chain"]++
				d.eng.Bufs().Put(frame)
				return
			}
			n := min(len(remaining), int(desc.Len))
			d.port.Write(desc.Addr, remaining[:n], func() {
				remaining = remaining[n:]
				if len(remaining) > 0 && desc.Flags&DescFlagNext != 0 {
					step(desc.Next, remaining, hops+1)
					return
				}
				if len(remaining) > 0 {
					d.Drops["rx-truncated"]++
				}
				d.RxPackets++
				d.publishUsed(RxQueue, UsedElem{ID: uint32(head), Len: uint32(len(frame) - len(remaining))})
				d.eng.Bufs().Put(frame)
			})
		})
	}
	step(head, frame, 0)
}

// publishUsed writes one used element plus the used index, then raises
// the interrupt.
func (d *NetDevice) publishUsed(q int, e UsedElem) {
	st := d.queues[q]
	slot := uint64(st.usedIdx % uint16(st.size))
	st.usedIdx++
	d.port.Write(st.usedBase+4+slot*8, MarshalUsedElem(e), func() {
		hdr := make([]byte, 2)
		binary.LittleEndian.PutUint16(hdr, st.usedIdx)
		d.port.Write(st.usedBase+2, hdr, func() {
			if d.Interrupt != nil {
				d.Interrupt(q)
			}
		})
	})
}

// cable is what the two directions of a virtio-net link share.
type cable struct {
	nic.Link
	rate    sim.BitRate
	latency sim.Duration
	segs    [2]nic.Segment
}

// ConnectLink cables two devices back to back and returns the cable's
// fault hooks and delivery counters; dir is the transmitting end (a is 0).
func ConnectLink(a, b *NetDevice, rate sim.BitRate, latency sim.Duration) *nic.Link {
	if a.eng != b.eng {
		panic("virtio: ConnectLink requires both devices on one engine")
	}
	c := &cable{rate: rate, latency: latency}
	for dir, tx := range [2]*NetDevice{a, b} {
		rx := [2]*NetDevice{b, a}[dir]
		tx.link = &c.segs[dir]
		tx.link.Init(&c.Link, dir, &c.rate, &c.latency, tx.eng, func(frame []byte) {
			c.Delivered[dir]++
			rx.deliver(frame)
		})
	}
	return &c.Link
}
