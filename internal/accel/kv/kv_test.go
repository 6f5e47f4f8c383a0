package kv_test

import (
	"slices"
	"testing"

	"flexdriver"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/rig"
	"flexdriver/internal/rpc"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// TestServeTable walks one connection through every answer the AFU can
// give, end to end over a wire: requests leave a software port, the kv
// core on the remote Innova serves them, responses come back TCP-framed.
func TestServeTable(t *testing.T) {
	rp := flexdriver.NewRemotePair()
	srv, cli := rp.Server, rp.Client
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})
	afu := kv.New(srv.FLD)
	afu.MaxEntries = 2

	port := cli.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	var replies [][]byte
	port.OnReceive = func(fr []byte, _ swdriver.RxMeta) { replies = append(replies, append([]byte(nil), fr...)) }
	seg := tcp.Segment{SrcPort: 5000, DstPort: 7777, Seq: 1000, Ack: 77,
		Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
	ask := func(payload []byte) (rpc.Frame, tcp.FrameInfo) {
		t.Helper()
		replies = nil
		port.Send(tcp.BuildFrame(cli.NIC.MAC, srv.NIC.MAC, cli.NIC.IP, srv.NIC.IP, seg, payload))
		rp.Run()
		if len(replies) != 1 {
			t.Fatalf("%d replies to one request", len(replies))
		}
		info, body, ok := tcp.ParseFrame(replies[0])
		if !ok {
			t.Fatal("reply is not a TCP frame")
		}
		resp, _, err := rpc.Parse(body)
		if err != nil || resp.Op != rpc.OpResp {
			t.Fatalf("reply body: %+v, %v", resp, err)
		}
		return resp, info
	}
	req := func(op uint8, id uint64, key, val string) []byte {
		return rpc.Frame{Op: op, ID: id, Key: []byte(key), Val: []byte(val)}.Marshal(nil)
	}

	for _, tc := range []struct {
		name    string
		payload []byte
		status  uint8
		id      uint64
		val     string
	}{
		{"get miss", req(rpc.OpGet, 1, "a", ""), rpc.StatusMiss, 1, ""},
		{"put", req(rpc.OpPut, 2, "a", "alpha"), rpc.StatusOK, 2, ""},
		{"get hit", req(rpc.OpGet, 3, "a", ""), rpc.StatusOK, 3, "alpha"},
		{"put second key", req(rpc.OpPut, 4, "b", "beta"), rpc.StatusOK, 4, ""},
		{"put new key at capacity", req(rpc.OpPut, 5, "c", "gamma"), rpc.StatusFull, 5, ""},
		{"resident key stays updatable when full", req(rpc.OpPut, 6, "a", "ALPHA"), rpc.StatusOK, 6, ""},
		{"get sees the update", req(rpc.OpGet, 7, "a", ""), rpc.StatusOK, 7, "ALPHA"},
		{"rejected key was not stored", req(rpc.OpGet, 8, "c", ""), rpc.StatusMiss, 8, ""},
		{"response op sent to a server", req(rpc.OpResp, 9, "", ""), rpc.StatusBadReq, 9, ""},
		{"garbage payload", []byte("not an rpc frame, but long enough"), rpc.StatusBadReq, 0, ""},
		{"truncated frame", req(rpc.OpPut, 10, "k", "value")[:rpc.HeaderLen+2], rpc.StatusBadReq, 0, ""},
		// A payload-less segment (a pure ACK) is not a request either: it
		// is counted malformed and answered BadReq with no ID — which is
		// why a kv server must only be steered frames addressed to it.
		{"payload-less segment", nil, rpc.StatusBadReq, 0, ""},
	} {
		resp, info := ask(tc.payload)
		if resp.Status != tc.status || resp.ID != tc.id || string(resp.Val) != tc.val {
			t.Errorf("%s: status=%d id=%d val=%q, want status=%d id=%d val=%q",
				tc.name, resp.Status, resp.ID, resp.Val, tc.status, tc.id, tc.val)
		}
		// Addressing is reversed and the stream position acknowledged.
		if info.Eth.Dst != cli.NIC.MAC || info.IP.Src != srv.NIC.IP ||
			info.Seg.SrcPort != 7777 || info.Seg.DstPort != 5000 ||
			info.Seg.Seq != seg.Ack || info.Seg.Ack != seg.Seq+uint32(len(tc.payload)) {
			t.Errorf("%s: reply addressing/sequence wrong: %+v", tc.name, info.Seg)
		}
		// The ID sits where the clients' ledgers read it back.
		if id := rig.Unstamp(replies[0], tcp.FrameOverhead+rpc.IDOffset); uint64(id) != tc.id {
			t.Errorf("%s: correlation ID at the ledger offset is %d", tc.name, id)
		}
	}

	if afu.Requests != 9 || afu.Gets != 4 || afu.Puts != 4 || afu.Hits != 2 || afu.Misses != 2 ||
		afu.Stored != 3 || afu.Rejected != 1 || afu.Malformed != 3 || afu.Responses != 12 || afu.Dropped != 0 {
		t.Errorf("counters: %+v", *afu)
	}
	if afu.Entries() != 2 || afu.ConnCount() != 1 {
		t.Errorf("entries=%d conns=%d, want 2 and 1", afu.Entries(), afu.ConnCount())
	}

	// A frame that is not TCP at all never gets an answer.
	replies = nil
	port.Send(rig.UDPFrame(cli.NIC, srv.NIC, 5000, 7777, 128))
	rp.Run()
	if len(replies) != 0 || afu.Malformed != 4 {
		t.Errorf("non-TCP frame: %d replies, malformed=%d", len(replies), afu.Malformed)
	}
}

// kvBed is a remote pair with the kv AFU on the server and a client port
// that keeps every reply; frames are handed to the AFU directly, so a test
// decides what the engine has and has not run between two requests.
type kvBed struct {
	rp      *flexdriver.RemotePair
	afu     *kv.AFU
	replies [][]byte
}

func newKVBed() *kvBed {
	b := &kvBed{rp: flexdriver.NewRemotePair()}
	b.rp.Server.RT.StartEth()
	b.afu = kv.New(b.rp.Server.FLD)
	port := b.rp.Client.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 1024})
	port.OnReceive = func(fr []byte, _ swdriver.RxMeta) { b.replies = append(b.replies, append([]byte(nil), fr...)) }
	b.rp.Run() // the port's receive buffers are posted: no pooled doorbell in flight
	return b
}

// request frames one RPC from client port 5000 at the given sequence number.
func (b *kvBed) request(seq uint32, op uint8, id uint64, key, val string) []byte {
	cli, srv := b.rp.Client.NIC, b.rp.Server.NIC
	seg := tcp.Segment{SrcPort: 5000, DstPort: 7777, Seq: seq, Ack: 77,
		Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
	return tcp.BuildFrame(cli.MAC, srv.MAC, cli.IP, srv.IP, seg,
		rpc.Frame{Op: op, ID: id, Key: []byte(key), Val: []byte(val)}.Marshal(nil))
}

// TestResponseBufferAndInPlacePut covers the response path's two sharing
// rules. The response frame is pooled scratch that goes back to the
// engine's BufPool whether FLD took the frame or refused it for lack of
// credits. And a same-length PUT overwrites the resident value in place,
// which is safe only because a GET's hit is marshalled out of the store
// before Receive returns: a response already sitting in FLD's transmit
// pages keeps the old bytes, the next GET sees the new ones.
func TestResponseBufferAndInPlacePut(t *testing.T) {
	b := newKVBed()
	bufs := b.rp.Engine().Bufs()
	md := flexdriver.Metadata{Last: true}

	b.afu.Receive(b.request(1000, rpc.OpPut, 1, "a", "alpha"), md)
	b.afu.Receive(b.request(1100, rpc.OpGet, 2, "a", ""), md)
	b.afu.Receive(b.request(1200, rpc.OpPut, 3, "a", "ALPHA"), md) // same length: in place, the hit above not yet on the wire
	b.afu.Receive(b.request(1300, rpc.OpGet, 4, "a", ""), md)
	b.afu.Receive(b.request(1400, rpc.OpPut, 5, "a", "longer value"), md) // other length: replaced
	b.afu.Receive(b.request(1500, rpc.OpGet, 6, "a", ""), md)
	if out := bufs.Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers outstanding after six served requests, before the engine ran", out)
	}
	b.rp.Run()
	var vals []string
	for _, fr := range b.replies {
		_, body, _ := tcp.ParseFrame(fr)
		resp, _, err := rpc.Parse(body)
		if err != nil || resp.Status != rpc.StatusOK {
			t.Fatalf("reply %d: %+v, %v", len(vals), resp, err)
		}
		vals = append(vals, string(resp.Val))
	}
	if want := []string{"", "alpha", "", "ALPHA", "", "longer value"}; !slices.Equal(vals, want) {
		t.Errorf("reply values %q, want %q", vals, want)
	}

	// One connection, seen six times: one table entry, counting.
	info, _, _ := tcp.ParseFrame(b.request(1500, rpc.OpGet, 6, "a", ""))
	if seq, reqs := b.afu.ConnState(info); b.afu.ConnCount() != 1 || seq != 1500 || reqs != 6 {
		t.Errorf("conns=%d lastSeq=%d reqs=%d, want 1, 1500, 6", b.afu.ConnCount(), seq, reqs)
	}
	info.Seg.SrcPort++
	if seq, reqs := b.afu.ConnState(info); seq != 0 || reqs != 0 || b.afu.ConnCount() != 1 {
		t.Errorf("looking up an unseen connection gave lastSeq=%d reqs=%d and left %d entries", seq, reqs, b.afu.ConnCount())
	}

	// Credit stall: with the engine stopped FLD's transmit pages run out.
	get := b.request(1600, rpc.OpGet, 7, "a", "")
	for i := 0; b.afu.Dropped == 0; i++ {
		if i > 4096 {
			t.Fatal("FLD never ran out of transmit credits")
		}
		b.afu.Receive(get, md)
	}
	if out := bufs.Outstanding(); out != 0 {
		t.Fatalf("%d pooled buffers outstanding after a credit-stall drop", out)
	}
	// Stalled, Send refuses the frame before it takes pages: what is left
	// is the AFU's own cost of a GET hit — parse, look up, frame — and
	// that is no allocation at all.
	if avg := testing.AllocsPerRun(100, func() { b.afu.Receive(get, md) }); avg != 0 {
		t.Errorf("GET hit up to Send: %.1f allocations inside Receive, want 0", avg)
	}
	b.rp.Run()
	// Served, the one allocation is fld.Send's page list.
	b.afu.Receive(get, md)
	if avg := testing.AllocsPerRun(100, func() { b.afu.Receive(get, md) }); avg > 1 {
		t.Errorf("GET hit, served: %.1f allocations inside Receive, want 1 (fld.Send's page list)", avg)
	}
	b.rp.Run()
	if out := bufs.Outstanding(); out != 0 || b.afu.Responses+b.afu.Dropped != b.afu.Requests {
		t.Errorf("%d pooled buffers outstanding at quiescence; %d responses + %d drops for %d requests",
			out, b.afu.Responses, b.afu.Dropped, b.afu.Requests)
	}
}
