package fld

import (
	"bytes"
	"math/rand"
	"testing"

	"flexdriver/internal/nic"
)

// allocPages takes a page for each page-sized chunk of data, as Send does,
// or none when the pool is short.
func allocPages(p *pagePool, data []byte) []uint16 {
	if p.pages(len(data)) > p.freePages() {
		return nil
	}
	var pages []uint16
	for lo := 0; lo < len(data); lo += p.pageBytes {
		pages = append(pages, p.alloc(data[lo:min(lo+p.pageBytes, len(data))]))
	}
	return pages
}

func releasePages(p *pagePool, pages []uint16) {
	for _, pg := range pages {
		p.release(pg)
	}
}

func TestPagePoolAllocRead(t *testing.T) {
	p := newPagePool(8192, 512)
	if p.freePages() != 16 {
		t.Fatalf("free pages = %d", p.freePages())
	}
	data := make([]byte, 1300) // 3 pages
	for i := range data {
		data[i] = byte(i)
	}
	pages := allocPages(p, data)
	if len(pages) != 3 {
		t.Fatalf("pages = %d", len(pages))
	}
	if p.freePages() != 13 {
		t.Fatalf("free after alloc = %d", p.freePages())
	}
	// Read back page by page.
	got := make([]byte, len(data))
	for i, pg := range pages {
		p.read(got[i*512:min((i+1)*512, len(got))], pg, 0)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page contents corrupted")
	}
	releasePages(p, pages)
	if p.freePages() != 16 {
		t.Fatalf("free after release = %d", p.freePages())
	}
}

func TestPagePoolExhaustion(t *testing.T) {
	p := newPagePool(2048, 512)
	a := allocPages(p, make([]byte, 1024))
	b := allocPages(p, make([]byte, 1024))
	if a == nil || b == nil || p.freePages() != 0 {
		t.Fatalf("pool should satisfy both, leaving none (%d free)", p.freePages())
	}
	if c := allocPages(p, []byte{1}); c != nil {
		t.Fatal("exhausted pool allocated")
	}
	releasePages(p, a)
	if c := allocPages(p, make([]byte, 700)); c == nil {
		t.Fatal("pool did not recover after release")
	}
}

// TestPagePoolZeroLengthTakesOnePage: a zero-length Send still holds a
// page, so its descriptor has a data address to point at.
func TestPagePoolZeroLengthTakesOnePage(t *testing.T) {
	_, _, f := newFLD(t, DefaultConfig())
	free := f.txPool.freePages()
	if err := f.Send(0, nil, Metadata{}); err != nil {
		t.Fatal(err)
	}
	if got := free - f.txPool.freePages(); got != 1 {
		t.Fatalf("zero-length send took %d pages, want 1", got)
	}
}

// TestSendPagesLiveInTheTranslationTable: a packet's pages are recorded
// only in the data translation table. Retiring descriptors returns their
// pages to the free list in the order the packets held them, so the next
// Send reuses the same pages in the reverse order of a LIFO list.
func TestSendPagesLiveInTheTranslationTable(t *testing.T) {
	eng, _, f := newFLD(t, DefaultConfig())
	free := f.txPool.freePages()
	if err := f.Send(0, nil, Metadata{}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 3*f.cfg.TxPageBytes+1) // 4 pages
	if err := f.Send(0, big, Metadata{}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	held := func(vstart, n int) (pages []uint32) {
		for i := range n {
			pg, ok := f.dataXlt.Lookup(uint64((vstart + i) % f.windowPages))
			if !ok {
				t.Fatalf("virtual page %d unmapped", vstart+i)
			}
			pages = append(pages, pg)
		}
		return pages
	}
	before := held(1, 4)
	f.MMIOWrite(f.txCQBase, nic.CQE{Opcode: nic.CQESend, Index: 1, Queue: 1}.Marshal())
	if f.txPool.freePages() != free {
		t.Fatalf("after retiring both: %d free pages, want %d", f.txPool.freePages(), free)
	}
	for vp := range 5 {
		if _, ok := f.dataXlt.Lookup(uint64(vp)); ok {
			t.Fatalf("virtual page %d still mapped after its descriptor retired", vp)
		}
	}
	if err := f.Send(0, big, Metadata{}); err != nil {
		t.Fatal(err)
	}
	after := held(5, 4)
	for i := range before {
		if before[i] != after[3-i] {
			t.Fatalf("pages %v came back as %v, want the reverse (a LIFO free list refilled in order)", before, after)
		}
	}
}

// TestPagePoolChurnNeverLosesPages: random alloc/release cycles conserve
// pages and never corrupt unrelated allocations (refcount invariant).
func TestPagePoolChurnNeverLosesPages(t *testing.T) {
	const total, page = 64 * 512, 512
	p := newPagePool(total, page)
	r := rand.New(rand.NewSource(5))
	type live struct {
		pages []uint16
		data  []byte
	}
	var allocs []live
	for round := 0; round < 3000; round++ {
		if r.Intn(2) == 0 {
			n := 1 + r.Intn(2000)
			data := make([]byte, n)
			r.Read(data)
			if pages := allocPages(p, data); pages != nil {
				allocs = append(allocs, live{pages, data})
			}
		} else if len(allocs) > 0 {
			i := r.Intn(len(allocs))
			a := allocs[i]
			// Verify content integrity before release.
			var got []byte
			rem := len(a.data)
			for _, pg := range a.pages {
				n := page
				if n > rem {
					n = rem
				}
				got = append(got, make([]byte, n)...)
				p.read(got[len(got)-n:], pg, 0)
				rem -= n
			}
			if !bytes.Equal(got, a.data) {
				t.Fatalf("round %d: allocation corrupted", round)
			}
			releasePages(p, a.pages)
			allocs = append(allocs[:i], allocs[i+1:]...)
		}
	}
	inUse := 0
	for _, a := range allocs {
		inUse += len(a.pages)
	}
	if p.freePages()+inUse != total/page {
		t.Fatalf("pages leaked: free=%d inuse=%d total=%d", p.freePages(), inUse, total/page)
	}
}

// TestSRAMMatchesFlatSlice drives the receive SRAM from both of its
// sides, the NIC's placements into the BAR and the CQE path's copy-out,
// against a flat slice of the same size: a placement straddling a granule
// round-trips with zeros on either side, one running off the end of the
// buffer clips as copy does, and a CQE whose address lies outside the
// buffer streams zeros where it used to panic. hostmem's FuzzStore is the
// store's own oracle.
func TestSRAMMatchesFlatSlice(t *testing.T) {
	eng, _, f := newFLD(t, DefaultConfig())
	f.ConfigureRx(2, f.RxBufCount())
	var got []byte
	f.SetHandler(HandlerFunc(func(data []byte, _ Metadata) { got = bytes.Clone(data) }))
	size := f.cfg.RxBufBytes
	flat := make([]byte, size)
	place := func(off int, data []byte) {
		f.MMIOWrite(f.rxBufBase+uint64(off), data)
		copy(flat[off:], data)
	}
	check := func(off uint64, n int) {
		t.Helper()
		cqe := nic.CQE{Opcode: nic.CQERecv, Last: true, Queue: 2, ByteCount: uint32(n),
			Addr: f.port.Base() + f.rxBufBase + off}
		f.MMIOWrite(f.rxCQBase, cqe.Marshal())
		eng.Run()
		want := make([]byte, n)
		if off < uint64(size) {
			copy(want, flat[off:])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("copy-out of %d bytes at %d differs from the flat slice", n, off)
		}
	}

	check(0, 1500) // nothing placed: all zero
	pat := make([]byte, 3000)
	for i := range pat {
		pat[i] = byte(i*7 + 1)
	}
	place(1024-700, pat) // straddles three granules
	check(1024-700, len(pat))
	check(100, 4000)     // zero bytes on both sides
	place(size-100, pat) // clips at the end
	check(uint64(size)-200, 500)
	check(uint64(size)+10, 64) // starts past the end
	check(^uint64(0)-63, 64)   // below the buffer: the offset wraps
}
