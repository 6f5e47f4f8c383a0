package nic

import (
	"encoding/binary"
	"slices"
	"testing"
)

// hostSendRing is the host driver's send-ring bookkeeping from before the
// drivers shared SendRing: EthPort's pi/ci and txComplete's rule. It is
// the oracle FuzzSendRing holds SendRing to.
type hostSendRing struct{ pi, ci uint32 }

// complete is EthPort.txComplete's masked-distance rule: a CQE at index
// idx retires every entry from ci up to idx, unless that distance runs
// past pi, which makes the CQE stale.
func (o *hostSendRing) complete(idx uint16) int {
	adv := uint32(idx-uint16(o.ci)) & 0xffff
	if adv+1 > o.pi-o.ci {
		return 0
	}
	o.ci += adv + 1
	return int(adv) + 1
}

// FuzzSendRing drives a SendRing from a byte program (post, complete at an
// index relative to the consumer index, a duplicate of the last CQE, pop,
// flush) with sends parked in a backlog behind a full ring, and checks
// every step against two oracles: the host driver's masked-distance rule
// and a brute-force list of the posted indices, where a CQE retires every
// posted entry up to the one carrying its index and nothing when no
// posted entry does. The producer index starts anywhere, including just
// below 2¹⁶ and 2³², so every 16-bit CQE index wraps.
func FuzzSendRing(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0x40, 1, 0x10})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0x80, 1, 1, 2, 0, 3, 0, 0, 4})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x01, 1, 0x00, 2, 1, 0xfe, 4, 0, 0, 3})
	f.Add([]byte{3, 5, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x08, 1, 0x7f, 1, 0x81})
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 68})        // the newest entry's CQE
	f.Add([]byte{1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 68, 1, 66}) // the same across 2¹⁶
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 6 {
			return
		}
		// The producer index starts near 0, 2¹⁶ or 2³², or anywhere.
		start := binary.LittleEndian.Uint32(prog[2:6])
		switch prog[0] % 4 {
		case 0:
			start = uint32(prog[2])
		case 1:
			start = 1<<16 - uint32(prog[2]%8)
		case 2:
			start = -uint32(prog[2] % 8)
		}
		size := uint32(1) << (prog[1] % 7) // 1..64 entries
		r := SendRing[uint32]{Size: size, PI: start}
		o := hostSendRing{pi: start, ci: start}
		var posted []uint32 // brute force: every index posted and not retired
		backlog, last := 0, uint16(start-1)

		post := func() {
			r.Post(r.PI)
			posted = append(posted, o.pi)
			o.pi++
		}
		drain := func() {
			for ; backlog > 0 && r.Space() > 0; backlog-- {
				post()
			}
		}
		for pc := 6; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%5, prog[pc+1]
			switch op {
			case 0: // send: post, or park behind a full ring
				backlog++
				drain()
			case 1, 2: // CQE at CI+d (d in [-32, 95], or 2¹⁵ further), or the last again
				idx := last
				if op == 1 {
					idx = uint16(r.CI()) + uint16(int(arg>>1)-32) + uint16(arg&1)<<15
				}
				last = idx
				want := 0
				for k, v := range posted {
					if uint16(v) == idx {
						want = k + 1
						break
					}
				}
				n := r.Complete(idx)
				if got := o.complete(idx); n != want || got != want {
					t.Fatalf("CQE at %#x with %d posted from %#x: Complete %d, host rule %d, brute force %d",
						idx, len(posted), r.CI(), n, got, want)
				}
				for i := 0; i < n; i++ {
					if v := r.Pop(); v != posted[i] {
						t.Fatalf("Pop = %#x, want %#x", v, posted[i])
					}
				}
				posted = posted[n:]
				drain()
			case 3: // RDMA's rule: one CQE retires the oldest slot
				if r.Len() > 0 {
					if v := r.Pop(); v != posted[0] {
						t.Fatalf("Pop = %#x, want %#x", v, posted[0])
					}
					posted = posted[1:]
					o.ci++
					drain()
				}
			case 4: // queue-fatal flush
				if n := r.Flush(); n != len(posted) {
					t.Fatalf("Flush = %d, want %d", n, len(posted))
				}
				posted = posted[:0]
				o.ci = o.pi
				drain()
			}
			ci := o.pi
			if len(posted) > 0 {
				ci = posted[0]
			}
			if r.PI != o.pi || r.CI() != ci || r.CI() != o.ci || r.Len() != len(posted) ||
				r.Space() != int(size)-len(posted) || r.Space() < 0 || (backlog > 0 && r.Space() != 0) {
				t.Fatalf("after op %d: PI %#x CI %#x Len %d Space %d backlog %d; want PI %#x CI %#x (host rule %#x) Len %d",
					op, r.PI, r.CI(), r.Len(), r.Space(), backlog, o.pi, ci, o.ci, len(posted))
			}
		}
	})
}

// armRecycle is the RDMA endpoint's receive recycling from before the
// drivers shared RecvRing, with the FLD's receive re-arm (ReArmRx) and
// resync (ResyncRx) beside it. FuzzRecvRing holds RecvRing to it.
type armRecycle struct {
	pi        uint32
	curBuf    int32
	strides   int
	per       int
	doorbells []uint32
	recycled  []int32 // the buffer each bump reposted
}

func (o *armRecycle) bump() {
	o.recycled = append(o.recycled, o.curBuf)
	o.pi++
	o.curBuf = -1
	o.strides = 0
	o.doorbells = append(o.doorbells, o.pi)
}

func (o *armRecycle) recycle(bufIdx int32, n int) {
	if o.curBuf >= 0 && bufIdx != o.curBuf {
		o.bump()
	}
	o.curBuf = bufIdx
	o.strides += n
	if o.strides >= o.per {
		o.bump()
	}
}

// FuzzRecvRing drives a RecvRing from a byte program (a completion
// consuming strides of a buffer, the FLD's re-arm after an RQ reset, the
// FLD's resync and the host driver's top-up after a crash) and checks its
// producer index, the doorbells it asks for and the buffers a completion
// recycles (what the FLD discards) against the recycling closure the RDMA
// endpoint kept before the merge.
func FuzzRecvRing(f *testing.F) {
	f.Add([]byte{2, 8, 0, 3, 0, 5, 1, 4, 1, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 2, 3, 0, 1, 0})
	f.Add([]byte{3, 4, 0, 1, 1, 1, 4, 2, 0, 4, 2, 1, 5, 0, 6, 3})
	f.Add([]byte{2, 1, 0, 3, 0, 1}) // a full buffer, then the next one
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		size, per := int(prog[0]%8)+1, int(prog[1]%16)+1
		r := RecvRing{Size: size, Strides: per, PI: uint32(size)}
		o := armRecycle{pi: uint32(size), curBuf: -1, per: per}
		var doorbells []uint32
		for pc := 2; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%8, int(prog[pc+1])
			switch op {
			case 0, 1, 2, 3, 4: // completion: buffer arg%size, 1..per+1 strides
				buf, strides := int32(arg%size), arg/size%(per+1)+1
				before := len(o.recycled)
				o.recycle(buf, strides)
				n, first := r.Fill(buf, strides)
				if got := []int32{first, buf}[:n]; !slices.Equal(got, o.recycled[before:]) {
					t.Fatalf("a completion of %d strides of buffer %d recycled %v; the closure recycled %v",
						strides, buf, got, o.recycled[before:])
				}
				for ; n > 0; n-- {
					doorbells = append(doorbells, r.PI-uint32(n-1))
				}
			case 5: // FLD ReArmRx: repost the buffer left mid-fill
				if o.curBuf >= 0 {
					o.bump()
				}
				if r.Abandon() {
					r.PI++
					doorbells = append(doorbells, r.PI)
				}
			case 6: // FLD ResyncRx: forget the fill, top up to posted
				o.curBuf, o.strides = -1, 0
				if missing := size - arg%(size+1); missing > 0 {
					o.pi += uint32(missing)
				}
				r.Abandon()
				r.TopUp(arg % (size + 1))
			case 7: // host reattach: top up, keeping the fill
				if missing := size - arg%(size+1); missing > 0 {
					o.pi += uint32(missing)
				}
				r.TopUp(arg % (size + 1))
			}
			if r.PI != o.pi || len(doorbells) != len(o.doorbells) {
				t.Fatalf("after op %d: PI %d, %d doorbells; the closure has PI %d, %d doorbells",
					op, r.PI, len(doorbells), o.pi, len(o.doorbells))
			}
		}
		for i := range doorbells {
			if doorbells[i] != o.doorbells[i] {
				t.Fatalf("doorbell %d at %d, the closure rang %d", i, doorbells[i], o.doorbells[i])
			}
		}
	})
}
