//go:build pooldebug

package sim

import "testing"

// TestPutPoisons: under the pooldebug tag a Put fills the whole buffer with
// 0xA5, so a reader that kept a borrowed buffer reads garbage, and every
// golden run under the tag shows whether one did.
func TestPutPoisons(t *testing.T) {
	p := NewBufPool()
	b := p.Get(100)
	clear(b)
	p.Put(b)
	for i, c := range b[:cap(b)] {
		if c != 0xA5 {
			t.Fatalf("byte %d of a returned buffer is %#x, want the 0xA5 poison", i, c)
		}
	}
}
