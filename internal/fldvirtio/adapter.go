// Package fldvirtio adapts FlexDriver to a standardized NIC interface,
// realizing the paper's §6 portability claim: "some NICs offer
// standardized interfaces such as virtio, and FlexDriver can be modified
// to support them. Thus, an accelerator using FlexDriver for a
// virtio-compatible NIC will work with any compliant NIC."
//
// The Adapter exposes exactly the same accelerator-facing contract as the
// ConnectX-flavored module (fld.Handler receive stream, Send with
// credits), but its BAR holds virtqueues instead of WQE rings: the device
// reads descriptors and buffers from the adapter's on-die memory over
// peer-to-peer PCIe and writes received frames and used-ring entries
// back, with no CPU on the data path — the FlexDriver architecture,
// unchanged, over a different wire contract.
package fldvirtio

import (
	"fmt"

	"flexdriver/internal/fld"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/virtio"
)

// Config sizes the adapter.
type Config struct {
	QueueSize int // descriptors per virtqueue (power of two)
	BufBytes  int // per-buffer size, tx and rx
	// PacketInterval paces the accelerator-facing pipeline (the same
	// clock-derived ceiling as the ConnectX-flavored module).
	PacketInterval sim.Duration
	PipelineDelay  sim.Duration
}

// DefaultConfig matches the prototype-class sizing.
func DefaultConfig() Config {
	return Config{
		QueueSize:      64,
		BufBytes:       2048,
		PacketInterval: 32 * sim.Nanosecond,
		PipelineDelay:  150 * sim.Nanosecond,
	}
}

// Adapter is the FLD-for-virtio module. Its BAR is one memory holding the
// two virtqueues; the device's DMA is plain loads and stores on it, and
// only a store to a used ring's index does more: it drains that ring.
type Adapter struct {
	cfg Config
	eng *sim.Engine
	fab *pcie.Fabric
	prt *pcie.Port
	bar *hostmem.Memory

	devBar uint64 // the device's notify registers
	tx, rx *virtio.DriverQueue

	txPipe, rxPipe *sim.Resource
	ops            sim.Pool[pipeOp, *pipeOp]
	handler        fld.Handler
	onCredits      func()

	// Stats.
	TxPackets, RxPackets int64
	CreditStalls         int64
}

// New builds an adapter; call AttachPCIe and BindDevice before use.
func New(eng *sim.Engine, cfg Config) *Adapter {
	if cfg.QueueSize&(cfg.QueueSize-1) != 0 {
		panic(fmt.Sprintf("fldvirtio: queue size %d not a power of two", cfg.QueueSize))
	}
	// hostmem's allocator hands out offsets from 0x1000 up.
	size := 0x1000 + 2*virtio.DriverQueueBytes(cfg.QueueSize, cfg.BufBytes)
	return &Adapter{cfg: cfg, eng: eng, bar: hostmem.New("fld-virtio", size),
		txPipe: sim.NewResource(eng), rxPipe: sim.NewResource(eng)}
}

// AttachPCIe connects the adapter to the fabric and lays the virtqueues
// out in its BAR, every receive buffer posted.
func (a *Adapter) AttachPCIe(fab *pcie.Fabric, cfg pcie.LinkConfig) *pcie.Port {
	a.fab = fab
	a.prt = fab.Attach(a, cfg)
	a.tx = virtio.NewDriverQueue(a.bar, a.prt.Base(), a.cfg.QueueSize, a.cfg.BufBytes, false)
	a.rx = virtio.NewDriverQueue(a.bar, a.prt.Base(), a.cfg.QueueSize, a.cfg.BufBytes, true)
	return a.prt
}

// BindDevice programs the virtio device's queues to live in the adapter's
// BAR and tells it the receive buffers are there.
func (a *Adapter) BindDevice(dev *virtio.NetDevice) {
	a.devBar = a.fab.PortOf(dev).Base()
	a.rx.Attach(dev, virtio.RxQueue)
	a.tx.Attach(dev, virtio.TxQueue)
	a.notify(virtio.RxQueue)
}

// SetHandler installs the accelerator's receive handler (the same
// fld.Handler contract as the ConnectX-flavored module).
func (a *Adapter) SetHandler(h fld.Handler) { a.handler = h }

// SetOnCredits installs the credit-release notification.
func (a *Adapter) SetOnCredits(fn func()) { a.onCredits = fn }

// Credits reports free transmit descriptors.
func (a *Adapter) Credits() int { return a.tx.Credits() }

// notify rings the device doorbell over PCIe (timed).
func (a *Adapter) notify(q int) {
	a.prt.Write(a.devBar+virtio.NotifyOffset(q), []byte{1, 0, 0, 0}, nil)
}

// Send transmits one frame; fld.ErrNoCredits when descriptors are out.
func (a *Adapter) Send(data []byte, md fld.Metadata) error {
	if len(data) > a.cfg.BufBytes {
		return fmt.Errorf("fldvirtio: frame %d exceeds buffer %d", len(data), a.cfg.BufBytes)
	}
	head, ok := a.tx.Take()
	if !ok {
		a.CreditStalls++
		return fld.ErrNoCredits
	}
	a.tx.Fill(head, data)
	a.TxPackets++
	a.cross(a.txPipe, txPublish, head, nil)
	return nil
}

// pipeOp carries one packet across a streaming pipeline (II pacing, then
// the fixed pipeline latency): a filled transmit descriptor on its way to
// the avail ring, or a received frame on its way to the accelerator.
// Records are recycled through a per-adapter pool, as in fld.
type pipeOp struct {
	sim.Link[pipeOp]
	a     *Adapter
	head  uint16
	frame []byte
}

// cross paces one packet through pipe and schedules step at the far end:
// one event, at the end of the pacing slot plus the pipeline latency.
func (a *Adapter) cross(pipe *sim.Resource, step func(any), head uint16, frame []byte) {
	x := a.ops.Get()
	x.a, x.head, x.frame = a, head, frame
	end := pipe.Acquire(a.cfg.PacketInterval)
	a.eng.AtArg(end+a.cfg.PipelineDelay, step, x)
}

// txPublish: the descriptor crossed the transmit pipeline; show it to the
// device.
func txPublish(arg any) {
	x := arg.(*pipeOp)
	a, head := x.a, x.head
	a.ops.Put(x)
	a.tx.Publish(head)
	a.notify(virtio.TxQueue)
}

// rxStream: the frame crossed the receive pipeline; stream it to the AFU.
func rxStream(arg any) {
	x := arg.(*pipeOp)
	a, frame := x.a, x.frame
	x.frame = nil
	a.ops.Put(x)
	if a.handler != nil {
		a.handler.Receive(frame, fld.Metadata{Last: true, ChecksumOK: true})
	}
}

// --- pcie.Device -----------------------------------------------------------

// PCIeName implements pcie.Device.
func (a *Adapter) PCIeName() string { return a.bar.PCIeName() }

// BARSize implements pcie.Device.
func (a *Adapter) BARSize() uint64 { return a.bar.BARSize() }

// MMIORead implements pcie.Device: the device fetching rings and buffers.
func (a *Adapter) MMIORead(offset uint64, dst []byte) bool { return a.bar.MMIORead(offset, dst) }

// MMIOWrite implements pcie.Device: the device writing rx data and used
// rings. A used-index update triggers completion processing.
func (a *Adapter) MMIOWrite(offset uint64, data []byte) {
	a.bar.WriteAt(offset, data)
	switch {
	case a.tx.UsedHeader(offset):
		before := a.tx.Credits()
		a.tx.Drain(func(head uint16, _ []byte) { a.tx.Release(head) })
		if a.tx.Credits() > before && a.onCredits != nil {
			a.onCredits()
		}
	case a.rx.UsedHeader(offset):
		// Stream received frames to the accelerator and recycle the
		// buffers in order, like the ConnectX-flavored module.
		a.rx.Drain(func(head uint16, frame []byte) {
			a.RxPackets++
			a.cross(a.rxPipe, rxStream, 0, frame)
			a.rx.Publish(head)
		})
		a.notify(virtio.RxQueue)
	}
}
