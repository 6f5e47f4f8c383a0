package memmodel

import (
	"math/rand"
	"testing"

	"flexdriver/internal/cuckoo"
	"flexdriver/internal/fld"
)

// drawParams maps fuzz input onto Table 2a's ranges: 1–1 000 Gbps, a
// 64–9 000 B minimum packet, 1–100 µs lifetimes and 1–4 096 queues.
func drawParams(bw, minPkt uint16, rxL, txL uint8, q uint16) Params {
	p := PaperParams()
	p.BandwidthGbps = 1 + float64(bw%9991)/10
	p.MinPacket = 64 + int(minPkt)%8937
	p.RxLifetimeUs = 1 + float64(rxL%100)
	p.TxLifetimeUs = 1 + float64(txL%100)
	p.TxQueues = 1 + int(q)%4096
	return p
}

// closedForm is Table 3's FLD column written out from Table 2a: an
// F(N_txdesc) pool of 8 B descriptors behind a translation table for
// N_txdesc entries, buffers at twice the bandwidth-delay product with the
// transmit pages' translation table, F(N_txdesc)+F(N_rxdesc) 15 B
// completions, no on-die receive ring and a 4 B producer index per queue
// plus one.
func closedForm(p Params) fld.MemoryBreakdown {
	d := p.Derive()
	xlt := func(n int) int { return cuckoo.SlotsFor(n) * 4 }
	return fld.MemoryBreakdown{
		TxRings:   F(d.TxDescriptors)*8 + xlt(d.TxDescriptors),
		TxBuffers: 2*d.TxBDPBytes + xlt(2*d.TxBDPBytes/512),
		RxBuffers: 2 * d.RxBDPBytes,
		CQ:        (F(d.TxDescriptors) + F(d.RxDescriptors)) * 15,
		PI:        (p.TxQueues + 1) * 4,
	}
}

// FuzzFLDMemory: the FLD column, read from fld.Config.Memory() of the
// configuration Table 2a provisions, is the analysis's closed form.
func FuzzFLDMemory(f *testing.F) {
	f.Add(uint16(990), uint16(192), uint8(4), uint8(24), uint16(511)) // Table 2a
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		f.Add(uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)),
			uint8(rng.Intn(256)), uint16(rng.Intn(1<<16)))
	}
	f.Fuzz(func(t *testing.T, bw, minPkt uint16, rxL, txL uint8, q uint16) {
		p := drawParams(bw, minPkt, rxL, txL, q)
		if got, want := p.FLD(), closedForm(p); got != want {
			t.Fatalf("%+v: FLD() = %+v, closed form %+v", p, got, want)
		}
	})
}
