package fld

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestPagePoolAllocRead(t *testing.T) {
	p := newPagePool(8192, 512)
	if p.freePages() != 16 {
		t.Fatalf("free pages = %d", p.freePages())
	}
	data := make([]byte, 1300) // 3 pages
	for i := range data {
		data[i] = byte(i)
	}
	pages := p.alloc(data)
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
	p.release(pages)
	if p.freePages() != 16 {
		t.Fatalf("free after release = %d", p.freePages())
	}
}

func TestPagePoolExhaustion(t *testing.T) {
	p := newPagePool(2048, 512)
	a := p.alloc(make([]byte, 1024))
	b := p.alloc(make([]byte, 1024))
	if a == nil || b == nil {
		t.Fatal("pool should satisfy both")
	}
	if c := p.alloc([]byte{1}); c != nil {
		t.Fatal("exhausted pool allocated")
	}
	p.release(a)
	if c := p.alloc(make([]byte, 700)); c == nil {
		t.Fatal("pool did not recover after release")
	}
}

func TestPagePoolZeroLengthTakesOnePage(t *testing.T) {
	p := newPagePool(1024, 512)
	if got := p.alloc(nil); len(got) != 1 {
		t.Fatalf("zero-length alloc = %d pages", len(got))
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
			if pages := p.alloc(data); pages != nil {
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
			p.release(a.pages)
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

// TestSRAMMatchesFlatSlice drives the lazy store and the flat slice it
// replaced with the same accesses: unwritten bytes read as zero, an access
// straddling a granule boundary round-trips, an access past the end clips
// exactly as copy does (the tail of dst stays untouched), and only written
// granules exist.
func TestSRAMMatchesFlatSlice(t *testing.T) {
	const size = 2*sramGranule + 1000 // partial last granule
	s, flat := newSRAM(size), make([]byte, size)
	check := func(off, n int) {
		t.Helper()
		got, want := bytes.Repeat([]byte{0xAA}, n), bytes.Repeat([]byte{0xAA}, n)
		s.read(got, off)
		copy(want, flat[off:])
		if !bytes.Equal(got, want) {
			t.Fatalf("read(%d, %d) differs from the flat slice", off, n)
		}
	}
	write := func(off int, data []byte) {
		s.write(off, data)
		copy(flat[off:], data)
	}

	check(0, size) // nothing written: all zero
	for _, g := range s.granules {
		if g != nil {
			t.Fatal("a read materialised a granule")
		}
	}

	pat := make([]byte, 3000)
	for i := range pat {
		pat[i] = byte(i*7 + 1)
	}
	write(sramGranule-1500, pat) // straddles granules 0 and 1
	check(sramGranule-1500, len(pat))
	check(sramGranule-2000, 4000) // zero bytes on both sides
	if s.granules[0] == nil || s.granules[1] == nil || s.granules[2] != nil {
		t.Fatal("granules 0 and 1 should exist, 2 should not")
	}

	write(size-100, pat) // clips at the end
	check(size-200, 500)
	check(size, 10) // empty read at the very end
	check(0, size)
	if len(s.granules[2]) != 1000 {
		t.Fatalf("last granule holds %d bytes, want 1000", len(s.granules[2]))
	}
}
