package fld

import "flexdriver/internal/hostmem"

// pagePool is the transmit buffer manager: a shared on-chip SRAM carved
// into fixed pages, allocated per packet and reference-counted by the ring
// manager (paper §5.1: "Ring managers maintain reference counts on their
// buffer pool and recycle buffers as needed").
type pagePool struct {
	pageBytes int
	mem       hostmem.Store
	free      []uint16 // LIFO free list of page indices
}

func newPagePool(totalBytes, pageBytes int) *pagePool {
	n := totalBytes / pageBytes
	p := &pagePool{pageBytes: pageBytes, mem: hostmem.NewStore(uint64(n * pageBytes)), free: make([]uint16, 0, n)}
	// Push in reverse so pages allocate in ascending order initially.
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, uint16(i))
	}
	return p
}

// pages returns how many pages n bytes occupy.
func (p *pagePool) pages(n int) int {
	return (n + p.pageBytes - 1) / p.pageBytes
}

// freePages reports currently available pages.
func (p *pagePool) freePages() int { return len(p.free) }

// alloc takes a free page and copies data (at most a page) into it; the
// caller must have checked freePages first.
func (p *pagePool) alloc(data []byte) uint16 {
	pg := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.mem.Write(uint64(pg)*uint64(p.pageBytes), data)
	return pg
}

// read copies len(dst) bytes starting at the given offset within a page
// into dst.
func (p *pagePool) read(dst []byte, page uint16, offset int) {
	p.mem.Read(dst, uint64(int(page)*p.pageBytes+offset))
}

// release returns a page to the free list.
func (p *pagePool) release(page uint16) { p.free = append(p.free, page) }
