package flexdriver

import (
	"bytes"
	"testing"

	"flexdriver/internal/accel/echo"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/swdriver"
)

func buildUDPFrame(srcID, dstID int, sport, dport uint16, n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), payload...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: netpkt.IPFrom(srcID), Dst: netpkt.IPFrom(dstID)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(dstID), Src: netpkt.MACFrom(srcID), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

// TestFLDERemoteEcho is the repository's flagship integration test: the
// paper's §8.1.1 topology end to end. A client host generates frames with
// the software driver; the server NIC steers them through the eSwitch to
// FLD; the echo AFU bounces them; FLD drives the NIC's transmit path over
// peer-to-peer PCIe; frames return to the client — with zero server-CPU
// involvement after setup.
func TestFLDERemoteEcho(t *testing.T) {
	rp := NewRemotePair()
	srv := rp.Server

	// Server control plane: one FLD TX queue, default egress to wire,
	// ingress steering of all client traffic into the accelerator.
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
	afu := echo.New(srv.FLD)

	// Client: software port; steer returning traffic to its RQ.
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})

	var received [][]byte
	port.OnReceive = func(frame []byte, md swdriver.RxMeta) {
		received = append(received, bytes.Clone(frame))
	}

	const n = 100
	frame := buildUDPFrame(1, 2, 4000, 7777, 512)
	for i := 0; i < n; i++ {
		port.Send(frame)
	}
	rp.Run()

	if afu.Echoed != n {
		t.Fatalf("AFU echoed %d, want %d (dropped %d, server drops %v)",
			afu.Echoed, n, afu.Dropped, srv.NIC.Stats.Drops)
	}
	if len(received) != n {
		t.Fatalf("client received %d, want %d (client drops %v)",
			len(received), n, rp.Client.NIC.Stats.Drops)
	}
	for _, f := range received {
		if !bytes.Equal(f, frame) {
			t.Fatal("echoed frame corrupted")
		}
	}
	// The server host CPU must not have touched the data path.
	if srv.Drv.RxPackets != 0 || srv.Drv.TxPackets != 0 {
		t.Fatal("server CPU participated in the data path")
	}
	if srv.FLD.Stats.RxPackets != n || srv.FLD.Stats.TxPackets != n {
		t.Fatalf("FLD stats: %+v", srv.FLD.Stats)
	}
}

// TestFLDELocalEcho runs the single-node variant: the host CPU exchanges
// traffic with the FPGA through the eSwitch hairpin.
func TestFLDELocalEcho(t *testing.T) {
	inn := NewLocalInnova()
	inn.RT.CreateEthTxQueue(0, nil)
	echoAFU := echo.New(inn.FLD)

	// Host software port, steering: host egress -> FLD's RQ (hairpin via
	// vport), FLD egress -> host port's RQ.
	port := inn.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	esw := inn.NIC.ESwitch()
	fldVP := inn.RT.VPort()
	hostVP := port.VPort()
	esw.ClearTable(hostVP.EgressTable)
	esw.AddRule(hostVP.EgressTable, Rule{Action: Action{ToVPort: &fldVP.ID}})
	esw.AddRule(fldVP.IngressTable, Rule{Action: Action{ToRQ: inn.RT.RQ()}})
	esw.AddRule(fldVP.EgressTable, Rule{Action: Action{ToVPort: &hostVP.ID}})
	esw.AddRule(hostVP.IngressTable, Rule{Action: Action{ToRQ: port.RQ()}})
	inn.RT.Start()

	got := 0
	port.OnReceive = func(frame []byte, md swdriver.RxMeta) { got++ }

	const n = 64
	frame := buildUDPFrame(1, 1, 9, 10, 1024)
	for i := 0; i < n; i++ {
		port.Send(frame)
	}
	inn.Run()

	if echoAFU.Echoed != n || got != n {
		t.Fatalf("echoed=%d received=%d want %d (drops %v, fld %+v)",
			echoAFU.Echoed, got, n, inn.NIC.Stats.Drops, inn.FLD.Stats)
	}
}

// TestFLDRRemoteEcho exercises the FLD-R path: a client RDMA endpoint
// connects to an FLD-R service; messages larger than the MTU are segmented
// by the client NIC's transport, reassembled... no — delivered per packet
// to the AFU, echoed per message back over the FLD QP, and reassembled by
// the client endpoint.
func TestFLDRRemoteEcho(t *testing.T) {
	rp := NewRemotePair()
	srv := rp.Server

	rsrv := NewRServer(srv.RT)
	rsrv.Listen("echo")
	srv.RT.Start()

	// Echo AFU for FLD-R: reassemble per-packet deliveries and send the
	// full message back on the FLD queue bound to the arriving QP.
	var cur []byte
	srv.FLD.SetHandler(HandlerFunc(func(data []byte, md Metadata) {
		cur = append(cur, data...)
		if md.Last {
			msg := cur
			cur = nil
			q := rsrv.QueueFor(md.Tag)
			if err := srv.FLD.Send(q, msg, Metadata{}); err != nil {
				t.Errorf("fld send: %v", err)
			}
		}
	}))

	ep, err := ConnectRDMA(rp.Client.Drv, rsrv, "echo", RDMAConfig{SendEntries: 64, RecvEntries: 64})
	if err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	ep.OnMessage = func(data []byte) { got = append(got, bytes.Clone(data)) } // borrowed

	msgs := [][]byte{
		bytes.Repeat([]byte{0xA1}, 100),
		bytes.Repeat([]byte{0xB2}, 2048), // > MTU: segmented in hardware
		bytes.Repeat([]byte{0xC3}, 5000),
	}
	for _, m := range msgs {
		ep.Send(m)
	}
	rp.Run()

	if len(got) != len(msgs) {
		t.Fatalf("received %d messages, want %d (drops client=%v server=%v)",
			len(got), len(msgs), rp.Client.NIC.Stats.Drops, srv.NIC.Stats.Drops)
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}
