package sim

// BufPool recycles packet-payload buffers across the per-packet copy sites
// of the simulator (PCIe completions, NIC CQE writes, descriptor fetches).
// It is size-classed in powers of two from 64 B to 16 KiB, and — like the
// Engine it hangs off — deliberately single-threaded: plain freelists beat
// sync.Pool here because Put([]byte) through an interface boxes the slice
// header (one allocation per recycle, defeating the point) and sync.Pool's
// GC-driven drops would perturb allocation determinism between runs.
//
// Ownership discipline (see DESIGN.md "Simulator performance"): a buffer
// from Get has exactly one owner at a time. Whoever holds it either passes
// ownership onward (e.g. a posted-write payload handed to the PCIe fabric)
// or calls Put exactly once when the buffer goes dead — "free on delivery".
// Shared frames (wire duplication, flooding, retransmission queues) must
// NOT come from the pool. Put clears nothing; callers must not retain
// aliases.
//
// Outstanding (Gets − Puts) is the leak counter: in a quiesced run it
// returns to zero, and telemetry surfaces it (telemetry.RegisterBufPool)
// so leaks show up in snapshots instead of as silent heap growth.
type BufPool struct {
	free [bufClasses][][]byte

	gets, puts uint64
	misses     uint64 // Get found its class empty and allocated
	foreign    uint64 // Put of a buffer whose capacity matches no class
	overflow   uint64 // Put dropped because the class freelist was full
}

const (
	bufMinClass   = 64    // smallest class, bytes
	bufMaxClass   = 16384 // largest class, bytes
	bufClasses    = 9     // 64,128,...,16384
	bufClassDepth = 1024  // per-class freelist bound, buffers
)

// NewBufPool returns an empty pool. Engines create one lazily via
// Engine.Bufs; standalone pools are fine for tests.
func NewBufPool() *BufPool { return &BufPool{} }

// bufClass returns the class index whose buffer capacity is the smallest
// power of two >= n (minimum 64), or -1 if n exceeds the largest class.
func bufClass(n int) int {
	if n > bufMaxClass {
		return -1
	}
	c, size := 0, bufMinClass
	for size < n {
		size <<= 1
		c++
	}
	return c
}

// Get returns a zero-filled-length buffer of length n. Buffers up to 16 KiB
// come from the pool (capacity is the class size); larger requests fall
// through to the allocator but are still counted, so Outstanding stays
// meaningful as long as they are Put back.
func (p *BufPool) Get(n int) []byte {
	p.gets++
	c := bufClass(n)
	if c < 0 {
		p.misses++
		return make([]byte, n)
	}
	if fl := p.free[c]; len(fl) > 0 {
		b := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.free[c] = fl[:len(fl)-1]
		return b[:n]
	}
	p.misses++
	return make([]byte, n, bufMinClass<<c)
}

// Put returns a dead buffer to the pool. Only buffers whose capacity is
// exactly a class size are recycled; anything else (including >16 KiB
// fall-through allocations) is released to the GC but still counted, so
// the Outstanding leak counter balances.
func (p *BufPool) Put(b []byte) {
	p.puts++
	c := bufClass(cap(b))
	if c < 0 || bufMinClass<<c != cap(b) {
		p.foreign++
		return
	}
	if len(p.free[c]) >= bufClassDepth {
		p.overflow++
		return
	}
	p.free[c] = append(p.free[c], b[:0])
}

// Outstanding returns Gets − Puts: the number of buffers currently owned by
// callers. A quiesced simulation should read zero; anything else is a leak
// (an owner that dropped its buffer without Put).
func (p *BufPool) Outstanding() int64 { return int64(p.gets) - int64(p.puts) }
