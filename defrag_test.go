package flexdriver

import (
	"testing"

	"flexdriver/internal/accel/defrag"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/swdriver"
)

// TestDefragThenResumeSteering is §2.1's "all-or-nothing offloads"
// argument at the facade: the NIC's match-action pipeline steers IPv4
// fragments through the FLD-attached defragmenter in the middle of its
// tables, and steering resumes at the next table with the reassembled
// packet, which a bump-in-the-wire accelerator could not do. Whole
// packets bypass the accelerator.
func TestDefragThenResumeSteering(t *testing.T) {
	rp := NewRemotePair()
	srv := rp.Server
	esw := srv.NIC.ESwitch()

	srv.RT.CreateEthTxQueue(0, nil)
	afu := defrag.NewAFU(srv.FLD, srv.Engine(), 10*Millisecond, 1024)
	const appTable = 40
	isFrag, toApp := true, appTable
	NewEControlPlane(srv.RT).InstallAccelerate(AccelerateSpec{
		Match:     Match{IsFragment: &isFrag},
		Context:   9,
		NextTable: appTable,
	})
	esw.AddRule(0, Rule{Action: Action{ToTable: &toApp}})
	srv.RT.Start()

	app := srv.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 128, RxEntries: 128})
	esw.AddRule(appTable, Rule{Action: Action{ToRQ: app.RQ()}})
	var delivered [][]byte
	app.OnReceive = func(frame []byte, md swdriver.RxMeta) { delivered = append(delivered, frame) }

	// 20 packets of 1 400 B, each sent as two fragments, then one whole;
	// the whole one skips the detour, so it may arrive first.
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 256, RxEntries: 256})
	want := map[string]bool{}
	ipPayload := func(frame []byte) (netpkt.IPv4, []byte) {
		_, ipb, err := netpkt.ParseEth(frame)
		if err != nil {
			t.Fatal(err)
		}
		h, payload, err := netpkt.ParseIPv4(ipb)
		if err != nil {
			t.Fatal(err)
		}
		return h, payload
	}
	for i := 0; i < 20; i++ {
		frame := buildUDPFrame(1, 2, uint16(30000+i), 5201, 1400)
		frags, err := netpkt.FragmentEth(frame, 1000)
		if err != nil || len(frags) != 2 {
			t.Fatalf("packet %d: %d fragments, %v", i, len(frags), err)
		}
		for _, f := range frags {
			port.Send(f)
		}
		_, p := ipPayload(frame)
		want[string(p)] = true
	}
	whole := buildUDPFrame(1, 2, 29999, 5201, 200)
	port.Send(whole)
	_, p := ipPayload(whole)
	want[string(p)] = true
	rp.Run()

	if got := afu.Reassembler().Completed; got != 20 {
		t.Fatalf("defragmenter completed %d/20 (drops %v)", got, srv.NIC.Stats.Drops)
	}
	if len(delivered) != len(want) {
		t.Fatalf("application received %d/%d", len(delivered), len(want))
	}
	for i, frame := range delivered {
		h, payload := ipPayload(frame)
		if h.IsFragment() || !want[string(payload)] {
			t.Fatalf("delivery %d is not one of the packets sent, whole", i)
		}
		delete(want, string(payload))
	}
}
