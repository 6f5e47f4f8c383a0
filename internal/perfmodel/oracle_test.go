package perfmodel

import (
	"math/rand"
	"testing"

	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// drawEcho maps fuzz input onto an echo model: Gen3 or Gen4 at x8 or
// x16, selective signalling 1–64, either descriptor path and a
// 1–64 KiB multi-packet receive buffer.
func drawEcho(gen4, x16 bool, sig uint8, mmio bool, rxWQE uint16) EchoModel {
	m := DefaultEchoModel(25)
	m.Link = pcie.Gen3x8()
	if gen4 {
		m.Link.Gen = 4
	}
	if x16 {
		m.Link.Lanes = 16
	}
	m.FLD.SignalEvery = 1 + int(sig)%64
	m.FLD.WQEByMMIO = mmio
	m.FLD.RxWQEBytes = 1 + int(rxWQE)
	return m
}

// echoBytes is an echoed packet's cost written out: the frame in, its
// receive CQE, the read requests for the frame out and 1-in-SignalEvery
// transmit CQEs towards the FPGA; the frame out as completions, a pushed
// 64 B WQE (or a 4 B doorbell and the WQE's read) and a 4 B receive
// doorbell per multi-packet buffer of ~1.5 KiB frames towards the NIC.
func echoBytes(m EchoModel, size int) (toFPGA, toNIC int) {
	l := m.Link
	toFPGA = l.WriteWireBytes(size)
	toFPGA += l.WriteWireBytes(64)
	toFPGA += l.ReadReqWireBytes(size)
	toFPGA += l.WriteWireBytes(64) / m.FLD.SignalEvery
	toNIC = l.CompletionWireBytes(size)
	if m.FLD.WQEByMMIO {
		toNIC += l.WriteWireBytes(64)
	} else {
		toNIC += l.WriteWireBytes(4)
		toNIC += l.CompletionWireBytes(64)
		toFPGA += l.ReadReqWireBytes(64)
	}
	toNIC += l.WriteWireBytes(4) / max(m.FLD.RxWQEBytes/1536, 1)
	return toFPGA, toNIC
}

// FuzzEchoModel: an echoed packet costs its closed form, and a request
// and a response of one size cost what an echoed packet of that size
// costs.
func FuzzEchoModel(f *testing.F) {
	f.Add(uint16(63), false, false, uint8(15), true, uint16(32<<10-1)) // Fig. 7a at 64 B
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		f.Add(uint16(rng.Intn(1<<16)), rng.Intn(2) == 0, rng.Intn(2) == 0, uint8(rng.Intn(256)),
			rng.Intn(2) == 0, uint16(rng.Intn(1<<16)))
	}
	f.Fuzz(func(t *testing.T, size uint16, gen4, x16 bool, sig uint8, mmio bool, rxWQE uint16) {
		s := 1 + int(size)%9000
		m := drawEcho(gen4, x16, sig, mmio, rxWQE)
		kvIn, kvOut := KVServeModel{Echo: m, ReqBytes: s, RespBytes: s}.PerRequestBytes()
		in, out := m.PerPacketBytes(s)
		if wantIn, wantOut := echoBytes(m, s); in != wantIn || out != wantOut {
			t.Fatalf("%d B, 1-in-%d signalling, WQE by MMIO %v, %d B receive buffers: %d/%d, closed form %d/%d",
				s, m.FLD.SignalEvery, m.FLD.WQEByMMIO, m.FLD.RxWQEBytes, in, out, wantIn, wantOut)
		}
		if kvIn != in || kvOut != out {
			t.Fatalf("%d B: request and response cost %d/%d, an echoed packet %d/%d", s, kvIn, kvOut, in, out)
		}
	})
}

// TestZucModelLiteral compares ZucModel.Goodput bit for bit with its
// closed form: 8 lanes of 92 ns + 1.5 ns/B behind a 25 Gbit/s link that
// carries a 64 B header and RoCE framing per 1 024 B packet.
func TestZucModelLiteral(t *testing.T) {
	m := DefaultZucModel()
	for size := 1; size <= 16<<10; size++ {
		msg := size + 64
		wire := msg + (msg+1023)/1024*(nic.RoCEOverhead+nic.EthWireOverhead)
		want := 25 * float64(size) / float64(wire)
		svc := float64(92*sim.Nanosecond+sim.Duration(msg)*1500*sim.Picosecond) / float64(sim.Second)
		if accel := 8 * float64(size) * 8 / svc / 1e9; accel < want {
			want = accel
		}
		if got := m.Goodput(size); got != want {
			t.Fatalf("%d B: Goodput = %v, closed form %v", size, got, want)
		}
	}
}
