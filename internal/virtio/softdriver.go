package virtio

import (
	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// SoftDriver is a host software driver for a NetDevice: rings and buffers
// in host memory, notifications over MMIO — the standard-compliant
// counterpart the FLD adapter must interoperate with.
type SoftDriver struct {
	host *pcie.Port
	bar  uint64 // the device's notify registers

	tx, rx *DriverQueue

	// OnReceive delivers received frames.
	OnReceive func(frame []byte)
	// OnSendComplete fires per retired tx chain.
	OnSendComplete func()

	queued sim.FIFO[[]byte] // tx frames waiting for a free descriptor
}

// NewSoftDriver builds rings in host memory and programs the device.
func NewSoftDriver(eng *sim.Engine, fab *pcie.Fabric, mem *hostmem.Memory, dev *NetDevice, qsize, bufBytes int) *SoftDriver {
	d := &SoftDriver{host: fab.PortOf(mem), bar: fab.PortOf(dev).Base()}
	base := fab.AddrOf(mem, 0)
	d.tx = NewDriverQueue(mem, base, qsize, bufBytes, false)
	d.rx = NewDriverQueue(mem, base, qsize, bufBytes, true)
	d.rx.Attach(dev, RxQueue)
	d.tx.Attach(dev, TxQueue)
	dev.Interrupt = d.interrupt
	d.notify(RxQueue)
	return d
}

// notify rings the device's queue doorbell (timed MMIO).
func (d *SoftDriver) notify(q int) {
	d.host.Write(d.bar+NotifyOffset(q), []byte{1, 0, 0, 0}, nil)
}

// Send transmits one frame (queued in software when descriptors are out).
func (d *SoftDriver) Send(frame []byte) {
	head, ok := d.tx.Take()
	if !ok {
		d.queued.Push(frame)
		return
	}
	d.tx.Fill(head, frame)
	d.tx.Publish(head)
	d.notify(TxQueue)
}

// interrupt handles used-ring updates from the device.
func (d *SoftDriver) interrupt(q int) {
	if q == TxQueue {
		d.tx.Drain(func(head uint16, _ []byte) {
			d.tx.Release(head)
			if d.OnSendComplete != nil {
				d.OnSendComplete()
			}
		})
		for d.queued.Len() > 0 && d.tx.Credits() > 0 {
			d.Send(d.queued.Pop())
		}
		return
	}
	d.rx.Drain(func(head uint16, frame []byte) {
		if d.OnReceive != nil {
			d.OnReceive(frame)
		}
		d.rx.Publish(head) // the descriptor is unchanged: offer the buffer again
	})
	d.notify(RxQueue)
}
