package sim

// BufPool recycles packet-payload buffers, size-classed in powers of two
// from 64 B to 16 KiB. Like its Engine it is single-threaded: plain
// freelists, because sync.Pool boxes a slice header per Put and drops
// buffers at GC, which would perturb allocation determinism.
//
// Ownership (DESIGN.md "Simulator performance"): a buffer from Get has one
// owner at a time, who passes it onward (a posted-write payload to the
// fabric, a frame to the wire) or calls Put once when it goes dead, into
// the pool of the engine it dies on. A callee it is lent to (a read
// completion's callback, an AFU's Receive) borrows it for the call and
// copies what it keeps; a shared frame (duplication, flooding) is copied
// per holder. Put clears nothing (under the pooldebug tag it poisons).
// Outstanding (Gets − Puts) is the leak counter, zero once a run quiesces.
type BufPool struct {
	free [bufClasses][][]byte

	gets, puts uint64
	misses     uint64 // Get found no buffer to spare and allocated
}

var PoolDebug bool // set by the pooldebug tag: Put, Poison and hostmem's Discard fill with 0xA5

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

// Get returns a buffer of length n: from its class, else from the next
// class up (an engine that receives larger frames than it sends sends
// from that surplus; further up, small buffers would pin large ones), else
// a new one of the class size. Over 16 KiB it allocates, still counted.
func (p *BufPool) Get(n int) []byte {
	p.gets++
	c := bufClass(n)
	if c < 0 {
		p.misses++
		return make([]byte, n)
	}
	for k := c; k <= c+1 && k < bufClasses; k++ {
		if fl := p.free[k]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			p.free[k] = fl[:len(fl)-1]
			return b[:n]
		}
	}
	p.misses++
	return make([]byte, n, bufMinClass<<c)
}

// Clone returns a pooled copy of b.
func (p *BufPool) Clone(b []byte) []byte {
	c := p.Get(len(b))
	copy(c, b)
	return c
}

// Put returns a dead buffer to the pool; nil is no buffer. Only buffers
// whose capacity is exactly a class size are recycled; anything else
// (including >16 KiB fall-through allocations) is released to the GC but
// still counted, so the Outstanding leak counter balances.
func (p *BufPool) Put(b []byte) {
	if b == nil {
		return
	}
	p.puts++
	Poison(b[:cap(b)])
	c := bufClass(cap(b))
	if c >= 0 && bufMinClass<<c == cap(b) && len(p.free[c]) < bufClassDepth {
		p.free[c] = append(p.free[c], b[:0])
	}
}

// Poison fills b with 0xA5 under the pooldebug tag, as Put does: an owner
// that lends a buffer of its own poisons it when the loan ends.
func Poison(b []byte) {
	for i := 0; PoolDebug && i < len(b); i++ {
		b[i] = 0xA5
	}
}

// Outstanding returns Gets − Puts: the number of buffers currently owned by
// callers. A quiesced simulation should read zero; anything else is a leak
// (an owner that dropped its buffer without Put).
func (p *BufPool) Outstanding() int64 { return int64(p.gets) - int64(p.puts) }
