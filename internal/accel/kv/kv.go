// Package kv implements the key-value-store accelerator function unit:
// TCP-framed RPC requests (internal/tcp + internal/rpc) arrive from FLD,
// the store answers GET/PUT against its in-FPGA table, and the response
// frame — headers reversed, correlation ID echoed — goes straight back
// out the FLD transmit queue. It is the serving layer of the paper's
// thesis one level up the stack: a real request/response workload with
// no host CPU on the datapath (the FlexTOE/RPCAcc shape from PAPERS.md).
//
// Each FLD core runs its own AFU instance with a private store — RSS
// keeps a connection's packets core-affine, so per-core stores need no
// cross-core locking, exactly like the per-core defrag tables.
package kv

import (
	"encoding/binary"

	"flexdriver/internal/fld"
	"flexdriver/internal/rpc"
	"flexdriver/internal/tcp"
)

// AFU is one FLD core's key-value server.
type AFU struct {
	f *fld.FLD
	// QueueFor picks the FLD transmit queue (default 0), as in echo.
	QueueFor func(md fld.Metadata) int
	// MaxEntries bounds the store; a PUT of a *new* key at capacity is
	// rejected with StatusFull (resident keys stay updatable). The
	// connection-table analysis in internal/memmodel sizes the SRAM
	// this bound models. Default 1 << 20.
	MaxEntries int

	store map[string][]byte
	// conns tracks live connection state (peer IP + ports -> last seen
	// sequence), the footprint memmodel.ConnTableBytes accounts for.
	// Entries live in the table itself, like the SRAM rows they model:
	// no heap object per connection and nothing in it for the GC to scan.
	conns map[uint64]connState

	// Counters. Malformed counts frames that reached the AFU but failed
	// TCP or RPC parsing (fault-injected corruption); Dropped counts
	// credit-stall send failures, the same no-backpressure rule as echo
	// (§5.5).
	Requests, Gets, Puts     int64
	Hits, Misses, Stored     int64
	Rejected                 int64 // PUTs refused at capacity
	Responses                int64
	Dropped                  int64
	Malformed                int64
	RequestBytes, ReplyBytes int64
}

// connState is one tracked connection.
type connState struct {
	LastSeq uint32
	Reqs    int64
}

// New installs a KV AFU on the FLD instance.
func New(f *fld.FLD) *AFU {
	a := &AFU{f: f, MaxEntries: 1 << 20,
		store: make(map[string][]byte), conns: make(map[uint64]connState)}
	f.SetHandler(a)
	return a
}

// ConnCount returns the live connection-table population.
func (a *AFU) ConnCount() int { return len(a.conns) }

// Entries returns the store population.
func (a *AFU) Entries() int { return len(a.store) }

// connKey folds the peer's identity (its IPv4 address and the port
// pair) into the table key — the 4-tuple as the cuckoo tables hash it.
func connKey(info tcp.FrameInfo) uint64 {
	ip := binary.BigEndian.Uint32(info.IP.Src[:])
	return uint64(ip)<<32 | uint64(info.Seg.SrcPort)<<16 | uint64(info.Seg.DstPort)
}

// Receive implements fld.Handler: parse, serve, respond. It never
// blocks (§5.5): any failure is counted and the packet dropped.
func (a *AFU) Receive(data []byte, md fld.Metadata) {
	info, payload, ok := tcp.ParseFrame(data)
	if !ok {
		a.Malformed++
		return
	}
	req, _, err := rpc.Parse(payload)
	resp := rpc.Frame{Op: rpc.OpResp}
	if err != nil {
		a.Malformed++
		resp.Status = rpc.StatusBadReq
		a.respond(info, len(payload), resp, md)
		return
	}
	a.Requests++
	a.RequestBytes += int64(len(data))
	resp.ID = req.ID

	key := connKey(info)
	cs := a.conns[key]
	cs.LastSeq = info.Seg.Seq
	cs.Reqs++
	a.conns[key] = cs

	switch req.Op {
	case rpc.OpGet:
		a.Gets++
		if v, hit := a.store[string(req.Key)]; hit {
			a.Hits++
			resp.Status = rpc.StatusOK
			resp.Val = v
		} else {
			a.Misses++
			resp.Status = rpc.StatusMiss
		}
	case rpc.OpPut:
		a.Puts++
		if old, resident := a.store[string(req.Key)]; !resident && len(a.store) >= a.MaxEntries {
			a.Rejected++
			resp.Status = rpc.StatusFull
		} else {
			if resident && len(old) == len(req.Val) {
				// Overwrite in place. Nothing aliases the stored bytes: a
				// GET marshals its hit into the response before Receive
				// returns.
				copy(old, req.Val)
			} else {
				a.store[string(req.Key)] = append([]byte(nil), req.Val...)
			}
			a.Stored++
			resp.Status = rpc.StatusOK
		}
	default: // OpResp to a server: a confused client; answer BadReq
		resp.Status = rpc.StatusBadReq
	}
	a.respond(info, len(payload), resp, md)
}

// respond reverses the request's addressing and sends the response
// frame. The response's TCP sequence numbers follow the stream: its Seq
// is the request's Ack (where the server's byte stream stands) and its
// Ack acknowledges the request's payload.
//
// The frame is marshalled once, into single-owner scratch from the
// engine's BufPool — headers, then the response straight behind them.
// Send copies it into FLD's transmit pages (or refuses it), so the
// buffer goes back on both outcomes.
func (a *AFU) respond(info tcp.FrameInfo, reqPayloadLen int, resp rpc.Frame, md fld.Metadata) {
	seg := tcp.Segment{
		SrcPort: info.Seg.DstPort, DstPort: info.Seg.SrcPort,
		Seq: info.Seg.Ack, Ack: info.Seg.Seq + uint32(reqPayloadLen),
		Flags: tcp.FlagAck, Window: info.Seg.Window, Epoch: info.Seg.Epoch,
	}
	bufs := a.f.Engine().Bufs()
	n := resp.Len()
	out := tcp.AppendHeaders(bufs.Get(tcp.FrameOverhead + n)[:0],
		info.Eth.Dst, info.Eth.Src, info.IP.Dst, info.IP.Src, seg, n)
	out = resp.Marshal(out)
	q := 0
	if a.QueueFor != nil {
		q = a.QueueFor(md)
	}
	err := a.f.Send(q, out, md)
	bufs.Put(out)
	if err != nil {
		a.Dropped++
		return
	}
	a.Responses++
	a.ReplyBytes += int64(len(out))
}
