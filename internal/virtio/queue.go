package virtio

import (
	"encoding/binary"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/sim"
)

// DriverQueue is the driver side of one split virtqueue, laid out in a
// memory the device reaches over PCIe: descriptor table, avail ring, used
// ring and one buffer per descriptor. Every chain is one descriptor. Host
// DRAM (SoftDriver) and an accelerator's BAR (fldvirtio.Adapter) hold the
// same structure and drive it through the same three calls: Fill a
// descriptor, Publish it to the device, Drain what the device retired.
type DriverQueue struct {
	mem      *hostmem.Memory
	base     uint64 // PCIe address of mem's offset 0
	size     int
	bufBytes int

	desc, avail, used, bufs uint64 // offsets in mem
	availIdx, usedSeen      uint16
	free                    sim.FIFO[uint16] // transmit descriptors the driver owns

	// BadUsed counts used elements Drain refused: a head beyond the table
	// or a length beyond the buffer.
	BadUsed int64
}

func align64(n int) uint64 { return (uint64(n) + 63) &^ 63 }

// DriverQueueBytes bounds what one queue allocates from its memory.
func DriverQueueBytes(size, bufBytes int) uint64 {
	return align64(size*DescSize) + align64(AvailBytes(size)) + align64(UsedBytes(size)) + align64(size*bufBytes)
}

// NewDriverQueue allocates a queue of size descriptors in mem, whose
// offset 0 the device sees at PCIe address base. On a receive queue
// (write) every buffer is posted, device-writable, from the start: Drain
// hands a filled one out and Publish offers the unchanged descriptor
// again. On a transmit queue every descriptor starts free.
func NewDriverQueue(mem *hostmem.Memory, base uint64, size, bufBytes int, write bool) *DriverQueue {
	q := &DriverQueue{mem: mem, base: base, size: size, bufBytes: bufBytes}
	q.desc = mem.Alloc(uint64(size*DescSize), 64)
	q.avail = mem.Alloc(uint64(AvailBytes(size)), 64)
	q.used = mem.Alloc(uint64(UsedBytes(size)), 64)
	q.bufs = mem.Alloc(uint64(size*bufBytes), 64)
	for i := 0; i < size; i++ {
		if !write {
			q.free.Push(uint16(i))
			continue
		}
		q.setDesc(uint16(i), bufBytes, DescFlagWrite)
		q.Publish(uint16(i))
	}
	return q
}

// Attach programs queue n of dev with this queue's ring addresses.
func (q *DriverQueue) Attach(dev *NetDevice, n int) {
	dev.ConfigureQueue(n, q.size, q.base+q.desc, q.base+q.avail, q.base+q.used)
}

// UsedHeader reports whether a write at mem offset off starts inside the
// used ring's {flags, idx} header: the device publishing completions.
func (q *DriverQueue) UsedHeader(off uint64) bool { return off >= q.used && off < q.used+4 }

func (q *DriverQueue) bufOff(head uint16) uint64 { return q.bufs + uint64(head)*uint64(q.bufBytes) }

func (q *DriverQueue) setDesc(head uint16, n int, flags uint16) {
	d := Desc{Addr: q.base + q.bufOff(head), Len: uint32(n), Flags: flags}
	q.mem.WriteAt(q.desc+uint64(head)*DescSize, d.Marshal())
}

// Credits returns the number of free transmit descriptors.
func (q *DriverQueue) Credits() int { return q.free.Len() }

// Take removes a free transmit descriptor; ok is false when none is left.
func (q *DriverQueue) Take() (head uint16, ok bool) {
	if q.free.Len() == 0 {
		return 0, false
	}
	return q.free.Pop(), true
}

// Release returns a retired transmit descriptor to the free list.
func (q *DriverQueue) Release(head uint16) { q.free.Push(head) }

// Fill copies data (at most the buffer size) into head's buffer and
// points the descriptor at exactly those bytes.
func (q *DriverQueue) Fill(head uint16, data []byte) {
	q.mem.WriteAt(q.bufOff(head), data)
	q.setDesc(head, len(data), 0)
}

// Publish appends head to the avail ring and advances the avail index:
// plain stores, which the device fetches by DMA once notified.
func (q *DriverQueue) Publish(head uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], head)
	q.mem.WriteAt(q.avail+4+uint64(q.availIdx%uint16(q.size))*2, b[:])
	q.availIdx++
	binary.LittleEndian.PutUint16(b[:], q.availIdx)
	q.mem.WriteAt(q.avail+2, b[:])
}

// Drain walks the used ring from the last element seen up to the device's
// index and calls fn with each retired head and a copy of the bytes the
// device reported writing to its buffer (none on a transmit queue). The
// elements are device input: one naming a descriptor the table does not
// have, or more bytes than a buffer holds, is counted and skipped.
func (q *DriverQueue) Drain(fn func(head uint16, data []byte)) {
	idx := binary.LittleEndian.Uint16(q.mem.ReadAt(q.used+2, 2))
	for q.usedSeen != idx {
		e, _ := ParseUsedElem(q.mem.ReadAt(q.used+4+uint64(q.usedSeen%uint16(q.size))*8, 8))
		q.usedSeen++
		if e.ID >= uint32(q.size) || e.Len > uint32(q.bufBytes) {
			q.BadUsed++
			continue
		}
		fn(uint16(e.ID), q.mem.ReadAt(q.bufOff(uint16(e.ID)), int(e.Len)))
	}
}
