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
	freeHeads []uint16
	backlog   [][]byte // frames waiting for free rx chains
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
	fab    *pcie.Fabric
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
	d.fab = fab
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

// MMIORead implements pcie.Device.
func (d *NetDevice) MMIORead(offset uint64, size int) []byte { return make([]byte, size) }

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
	d.port.Read(st.availBase, 4, func(c pcie.Completion) {
		if !c.OK() {
			d.Drops["dma-error"]++
			st.pumping = false
			return
		}
		idx := binary.LittleEndian.Uint16(c.Data[2:])
		d.consumeAvail(q, idx)
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
	st.lastAvail += uint16(n)
	d.port.Read(st.availBase+4+uint64(slot)*2, n*2, func(c pcie.Completion) {
		if !c.OK() {
			d.Drops["dma-error"]++
			st.pumping = false
			return
		}
		for i := 0; i < n; i++ {
			head := binary.LittleEndian.Uint16(c.Data[i*2:])
			if q == TxQueue {
				h := head
				d.readChain(st, h, nil, 0, func(frame []byte) {
					d.transmit(st, h, frame)
				})
				continue
			}
			st.freeHeads = append(st.freeHeads, head)
		}
		d.consumeAvail(q, idx)
	})
}

// readChain gathers a descriptor chain's buffers into one frame.
func (d *NetDevice) readChain(st *queueState, idx uint16, acc []byte, hops int, done func([]byte)) {
	if hops > 16 {
		d.Drops["chain-too-long"]++
		done(acc)
		return
	}
	d.port.Read(st.descBase+uint64(idx)*DescSize, DescSize, func(c pcie.Completion) {
		if !c.OK() {
			d.Drops["dma-error"]++
			done(acc)
			return
		}
		desc, err := ParseDesc(c.Data)
		if err != nil {
			done(acc)
			return
		}
		d.port.Read(desc.Addr, int(desc.Len), func(c pcie.Completion) {
			if !c.OK() {
				d.Drops["dma-error"]++
				done(acc)
				return
			}
			acc = append(acc, c.Data...)
			if desc.Flags&DescFlagNext != 0 {
				d.readChain(st, desc.Next, acc, hops+1, done)
				return
			}
			done(acc)
		})
	})
}

// transmit puts a gathered frame on the link and retires the chain.
func (d *NetDevice) transmit(st *queueState, head uint16, frame []byte) {
	d.engine.Acquire(d.Prm.PerPacket, func() {
		d.eng.After(d.Prm.PipelineDelay, func() {
			d.TxPackets++
			if d.link != nil {
				d.link.Send(frame, nil)
			} else {
				d.Drops["no-link"]++
			}
			d.publishUsed(TxQueue, UsedElem{ID: uint32(head), Len: 0})
		})
	})
}

// deliver handles a frame arriving from the link.
func (d *NetDevice) deliver(frame []byte) {
	st := d.queues[RxQueue]
	if st == nil {
		d.Drops["rx-unconfigured"]++
		return
	}
	d.engine.Acquire(d.Prm.PerPacket, func() {
		d.eng.After(d.Prm.PipelineDelay, func() {
			if len(st.backlog) >= 256 {
				d.Drops["rx-overflow"]++
				return
			}
			st.backlog = append(st.backlog, frame)
			d.drainRxBacklog()
			if len(st.backlog) > 0 && !st.pumping {
				d.pump(RxQueue) // look for freshly posted chains
			}
		})
	})
}

// drainRxBacklog fills free rx chains with backlogged frames.
func (d *NetDevice) drainRxBacklog() {
	st := d.queues[RxQueue]
	for len(st.backlog) > 0 && len(st.freeHeads) > 0 {
		frame := st.backlog[0]
		st.backlog = st.backlog[1:]
		head := st.freeHeads[0]
		st.freeHeads = st.freeHeads[1:]
		d.fillChain(st, head, frame)
	}
}

// fillChain scatters a frame into a writable descriptor chain and
// publishes the used entry.
func (d *NetDevice) fillChain(st *queueState, head uint16, frame []byte) {
	total := len(frame)
	var step func(idx uint16, remaining []byte, hops int)
	step = func(idx uint16, remaining []byte, hops int) {
		if hops > 16 {
			d.Drops["chain-too-long"]++
			return
		}
		d.port.Read(st.descBase+uint64(idx)*DescSize, DescSize, func(c pcie.Completion) {
			if !c.OK() {
				d.Drops["dma-error"]++
				return
			}
			desc, err := ParseDesc(c.Data)
			if err != nil || desc.Flags&DescFlagWrite == 0 {
				d.Drops["rx-bad-chain"]++
				return
			}
			n := len(remaining)
			if n > int(desc.Len) {
				n = int(desc.Len)
			}
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
				d.publishUsed(RxQueue, UsedElem{ID: uint32(head), Len: uint32(total - len(remaining))})
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
	c := &cable{rate: rate, latency: latency}
	for dir, tx := range [2]*NetDevice{a, b} {
		rx := [2]*NetDevice{b, a}[dir]
		tx.link = &c.segs[dir]
		tx.link.Init(&c.Link, dir, &c.rate, &c.latency, tx.eng, rx.eng, func(frame []byte) {
			c.Delivered[dir]++
			rx.deliver(frame)
		})
	}
	return &c.Link
}
