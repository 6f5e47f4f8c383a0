package fld

// pagePool is the transmit buffer manager: a shared on-chip SRAM carved
// into fixed pages, allocated per packet and reference-counted by the ring
// manager (paper §5.1: "Ring managers maintain reference counts on their
// buffer pool and recycle buffers as needed").
type pagePool struct {
	pageBytes int
	mem       sram
	free      []uint16 // LIFO free list of page indices
}

func newPagePool(totalBytes, pageBytes int) *pagePool {
	n := totalBytes / pageBytes
	p := &pagePool{pageBytes: pageBytes, mem: newSRAM(n * pageBytes), free: make([]uint16, 0, n)}
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

// freeBytes reports available capacity in bytes.
func (p *pagePool) freeBytes() int { return len(p.free) * p.pageBytes }

// alloc reserves pages(n) pages and copies data into them, returning the
// page list. It returns nil when the pool cannot satisfy the request —
// the caller must have checked credits first.
func (p *pagePool) alloc(data []byte) []uint16 {
	need := p.pages(len(data))
	if need == 0 {
		need = 1
	}
	if need > len(p.free) {
		return nil
	}
	pages := make([]uint16, need)
	for i := range pages {
		pages[i] = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		lo := i * p.pageBytes
		p.mem.write(int(pages[i])*p.pageBytes, data[lo:min(lo+p.pageBytes, len(data))])
	}
	return pages
}

// read copies len(dst) bytes starting at the given offset within a page
// into dst.
func (p *pagePool) read(dst []byte, page uint16, offset int) {
	p.mem.read(dst, int(page)*p.pageBytes+offset)
}

// release returns pages to the free list.
func (p *pagePool) release(pages []uint16) {
	p.free = append(p.free, pages...)
}

// sramGranule is the unit data SRAM materialises in: one default MPRQ
// buffer or 64 default tx pages, so a datapath access stays inside one.
const sramGranule = 32 << 10

// sram is on-die data memory (this pool, the receive buffer) that costs
// the simulator what a run writes: a granule is allocated on first write,
// unwritten bytes read as zero, accesses past the end clip as copy does.
// The pool's LIFO free list and the in-order MPRQ ring keep a short run
// inside one or two granules.
type sram struct {
	size     int
	granules [][]byte
}

func newSRAM(size int) sram {
	return sram{size, make([][]byte, (size+sramGranule-1)/sramGranule)}
}

func (s *sram) write(off int, data []byte) {
	data = data[:min(len(data), s.size-off)]
	for len(data) > 0 {
		g := &s.granules[off/sramGranule]
		if *g == nil {
			*g = make([]byte, min(sramGranule, s.size-off/sramGranule*sramGranule))
		}
		n := copy((*g)[off%sramGranule:], data)
		data, off = data[n:], off+n
	}
}

func (s *sram) read(dst []byte, off int) {
	dst = dst[:min(len(dst), s.size-off)]
	for len(dst) > 0 {
		n := min(len(dst), sramGranule-off%sramGranule)
		if g := s.granules[off/sramGranule]; g != nil {
			copy(dst[:n], g[off%sramGranule:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}
