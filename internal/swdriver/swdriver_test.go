package swdriver

import (
	"bytes"
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
)

// host bundles one simulated machine for driver tests.
type host struct {
	eng *sim.Engine
	fab *pcie.Fabric
	mem *hostmem.Memory
	nic *nic.NIC
	drv *Driver
}

func newHost(eng *sim.Engine, prm Params) *host {
	fab := pcie.NewFabric(eng)
	mem := hostmem.New("mem", 1<<28)
	fab.Attach(mem, pcie.Gen3x8())
	n := nic.New("nic", eng, nic.DefaultParams())
	n.AttachPCIe(fab, pcie.Gen3x8())
	return &host{eng: eng, fab: fab, mem: mem, nic: n, drv: New(eng, fab, mem, n, prm)}
}

func frame(n int, sport uint16) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	udp := netpkt.UDP{SrcPort: sport, DstPort: 9, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), payload...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: netpkt.IPFrom(5), Dst: netpkt.IPFrom(6)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(6), Src: netpkt.MACFrom(5), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

func noJitter() Params {
	p := DefaultParams()
	p.JitterProb = 0
	return p
}

func TestEthPortEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)

	tx := a.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})

	var got [][]byte
	rx.OnReceive = func(f []byte, md RxMeta) { got = append(got, bytes.Clone(f)) }

	want := frame(700, 42)
	for i := 0; i < 10; i++ {
		tx.Send(want)
	}
	eng.Run()

	if len(got) != 10 {
		t.Fatalf("received %d/10 (drops %v)", len(got), b.nic.Stats.Drops)
	}
	for _, f := range got {
		if !bytes.Equal(f, want) {
			t.Fatal("frame corrupted")
		}
	}
	if a.drv.TxPackets != 10 || b.drv.RxPackets != 10 {
		t.Fatalf("driver counters tx=%d rx=%d", a.drv.TxPackets, b.drv.RxPackets)
	}
}

func TestSelectiveSignallingAdvancesCI(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter()) // SignalEvery = 4
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	tx := a.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})

	completions := 0
	completed := 0
	tx.OnSendComplete = func(n int) { completions++; completed += n }
	f := frame(200, 1)
	for i := 0; i < 16; i++ {
		tx.Send(f)
	}
	eng.Run()
	if completed != 16 {
		t.Fatalf("completed %d/16 descriptors", completed)
	}
	if completions != 4 {
		t.Fatalf("CQEs = %d, want 4 (1-in-4 signalling)", completions)
	}
}

// TestSoftwareQueueBeyondRing: sends exceeding the ring park in software
// and drain as completions arrive; every frame arrives once.
func TestSoftwareQueueBeyondRing(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	tx := a.drv.NewEthPort(EthPortConfig{TxEntries: 16, RxEntries: 256})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 16, RxEntries: 256})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})
	seen := map[uint16]int{}
	rx.OnReceive = func(f []byte, _ RxMeta) { seen[uint16(f[34])<<8|uint16(f[35])]++ }
	const n = 100 // far beyond the 16-entry ring
	for i := 0; i < n; i++ {
		tx.Send(frame(1400, uint16(i))) // ~450 ns on the wire, 45 ns of CPU
	}
	eng.Run()
	for i := 0; i < n; i++ {
		if seen[uint16(i)] != 1 {
			t.Fatalf("frame %d received %d times (%d distinct of %d)", i, seen[uint16(i)], len(seen), n)
		}
	}
}

func TestRxBufferRecyclingSustains(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	tx := a.drv.NewEthPort(EthPortConfig{TxEntries: 256, RxEntries: 256})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 32})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})
	got := 0
	rx.OnReceive = func([]byte, RxMeta) { got++ }
	// 10x the rx ring depth must flow through thanks to recycling.
	f := frame(200, 3)
	for i := 0; i < 320; i++ {
		tx.Send(f)
	}
	eng.Run()
	if got != 320 {
		t.Fatalf("received %d/320 (drops %v)", got, b.nic.Stats.Drops)
	}
}

func TestInlineMMIOPushPath(t *testing.T) {
	eng := sim.NewEngine()
	prm := noJitter()
	prm.DoorbellBatch = 1 // latency mode: inline small frames
	a := newHost(eng, prm)
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	tx := a.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	rx := b.drv.NewEthPort(EthPortConfig{TxEntries: 64, RxEntries: 64})
	b.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToRQ: rx.RQ()}})
	var got []byte
	rx.OnReceive = func(f []byte, md RxMeta) { got = bytes.Clone(f) }
	small := frame(50, 4) // 92 B frame <= 96 B inline capacity
	if len(small) > 96 {
		t.Fatalf("test frame too big: %d", len(small))
	}
	tx.Send(small)
	eng.Run()
	if !bytes.Equal(got, small) {
		t.Fatal("inline-pushed frame corrupted")
	}
}

func TestJitterInflatesTail(t *testing.T) {
	eng := sim.NewEngine()
	prm := DefaultParams()
	prm.JitterProb = 0.05 // exaggerated for the test
	a := newHost(eng, prm)
	// Directly sample cpuWork completion times.
	var deltas []sim.Time
	for i := 0; i < 2000; i++ {
		start := eng.Now()
		a.drv.cpuWork(100*sim.Nanosecond, func(any) {
			deltas = append(deltas, eng.Now()-start)
		}, nil)
		eng.Run()
	}
	jittered := 0
	for _, d := range deltas {
		if d > sim.Microsecond {
			jittered++
		}
	}
	if jittered == 0 {
		t.Fatal("no jitter events observed at p=0.05")
	}
	if jittered > 400 {
		t.Fatalf("too many jitter events: %d/2000", jittered)
	}
}

func TestRDMAEndpointPairExchangesMessages(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	ea := a.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: 64, RecvEntries: 64})
	eb := b.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: 64, RecvEntries: 64})
	nic.ConnectQPs(ea.QP, eb.QP)

	var atB [][]byte
	eb.OnMessage = func(m []byte) { atB = append(atB, bytes.Clone(m)) } // borrowed
	var atA [][]byte
	ea.OnMessage = func(m []byte) { atA = append(atA, bytes.Clone(m)) }

	big := bytes.Repeat([]byte{7}, 5000) // > MTU: segmented
	ea.Send([]byte("hello"))
	ea.Send(big)
	eb.Send([]byte("world"))
	eng.Run()

	if len(atB) != 2 || string(atB[0]) != "hello" || !bytes.Equal(atB[1], big) {
		t.Fatalf("B received %d messages", len(atB))
	}
	if len(atA) != 1 || string(atA[0]) != "world" {
		t.Fatalf("A received %d messages", len(atA))
	}
}

func TestRDMAEndpointQueuesBeyondRing(t *testing.T) {
	eng := sim.NewEngine()
	a := newHost(eng, noJitter())
	b := newHost(eng, noJitter())
	nic.ConnectWire(a.nic, b.nic, 25*sim.Gbps, 500*sim.Nanosecond)
	ea := a.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: 8, RecvEntries: 64})
	eb := b.drv.NewRDMAEndpoint(RDMAConfig{SendEntries: 8, RecvEntries: 64})
	nic.ConnectQPs(ea.QP, eb.QP)
	got := 0
	eb.OnMessage = func([]byte) { got++ }
	completions := 0
	ea.OnSendComplete = func() { completions++ }
	msg := make([]byte, 256)
	const n = 50
	for i := 0; i < n; i++ {
		ea.Send(msg)
	}
	eng.Run()
	if got != n || completions != n {
		t.Fatalf("delivered %d, completed %d, want %d", got, completions, n)
	}
}
