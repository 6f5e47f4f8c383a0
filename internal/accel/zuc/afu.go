package zuc

import (
	"encoding/binary"
	"fmt"
	"slices"

	"flexdriver/internal/fld"
	"flexdriver/internal/sim"
)

// Request/response wire format: a 64-byte header carrying the
// cryptographic key, IV material and metadata (paper §7: "The
// request/response format includes a 64 B header for the cryptographic
// key, initialization vector (IV), and additional metadata"), followed by
// the payload.
const (
	HeaderBytes = 64

	OpEncrypt = 1
	OpDecrypt = 2
	OpAuth    = 3

	respFlag = 0x80
)

// Request is a parsed cipher request.
type Request struct {
	Op        uint8
	Bearer    uint8
	Direction uint8
	Count     uint32
	Key       [16]byte
	ID        uint32
	BitLen    int
	Payload   []byte
}

// Marshal encodes header+payload.
func (r Request) Marshal() []byte {
	b := make([]byte, HeaderBytes+len(r.Payload))
	r.putHeader(b)
	copy(b[HeaderBytes:], r.Payload)
	return b
}

// putHeader writes the 64-byte header into b, which must be zeroed.
func (r Request) putHeader(b []byte) {
	b[0], b[1] = 'Z', 'C'
	b[2] = r.Op
	b[3] = r.Bearer<<3 | r.Direction<<2
	binary.BigEndian.PutUint32(b[4:], r.Count)
	copy(b[8:24], r.Key[:])
	binary.BigEndian.PutUint32(b[40:], r.ID)
	binary.BigEndian.PutUint32(b[44:], uint32(r.BitLen))
}

// ParseRequest decodes header+payload.
func ParseRequest(b []byte) (Request, error) {
	if len(b) < HeaderBytes {
		return Request{}, fmt.Errorf("zuc: request shorter than header (%d bytes)", len(b))
	}
	if b[0] != 'Z' || b[1] != 'C' {
		return Request{}, fmt.Errorf("zuc: bad request magic")
	}
	r := Request{
		Op:        b[2] &^ respFlag,
		Bearer:    b[3] >> 3,
		Direction: b[3] >> 2 & 1,
		Count:     binary.BigEndian.Uint32(b[4:]),
		ID:        binary.BigEndian.Uint32(b[40:]),
		BitLen:    int(binary.BigEndian.Uint32(b[44:])),
		Payload:   b[HeaderBytes:],
	}
	copy(r.Key[:], b[8:24])
	if r.BitLen > len(r.Payload)*8 {
		return Request{}, fmt.Errorf("zuc: bit length %d exceeds payload", r.BitLen)
	}
	return r, nil
}

// LaneParams model one ZUC hardware lane's throughput. The defaults hit
// the paper's published 4.76 Gbps per module at 512 B messages.
type LaneParams struct {
	PerMessage sim.Duration
	PerByte    sim.Duration
}

// DefaultLaneParams calibrates to the published module throughput.
func DefaultLaneParams() LaneParams {
	// 512 B at 4.76 Gbps => 860 ns/message. Split as fixed + per-byte
	// with a 64-bit @ 666 MHz datapath asymptote (~5.33 Gbps).
	return LaneParams{
		PerMessage: 92 * sim.Nanosecond,
		PerByte:    1500 * sim.Picosecond,
	}
}

// Lanes is the prototype AFU's lane count (§7: eight ZUC modules).
const Lanes = 8

// AFU is the disaggregated ZUC accelerator (paper §7): a front-end load
// balancer over 8 ZUC lanes, exposed to the network through FLD-R.
type AFU struct {
	f     *fld.FLD
	eng   *sim.Engine
	lanes []*sim.Resource
	prm   LaneParams

	// QueueFor maps an arriving QP tag to the FLD transmit queue bound
	// to that connection (wired by the control plane).
	QueueFor func(tag uint32) int

	// reasm holds one reassembly scratch per QP, sized for a whole receive
	// buffer on first use and reused for every later message.
	reasm map[uint32][]byte

	jobs sim.Pool[laneJob, *laneJob]

	// Stats.
	Requests, Responses, Dropped, Bad int64
}

// laneJob carries one request through its lane's service time, recycled
// through the AFU's pool, so a request schedules no closure.
type laneJob struct {
	sim.Link[laneJob]
	a   *AFU
	req Request
	tag uint32
}

// NewAFU installs an n-lane ZUC accelerator on the FLD instance.
func NewAFU(f *fld.FLD, eng *sim.Engine, nLanes int, prm LaneParams) *AFU {
	a := &AFU{f: f, eng: eng, prm: prm, reasm: make(map[uint32][]byte)}
	for i := 0; i < nLanes; i++ {
		a.lanes = append(a.lanes, sim.NewResource(eng))
	}
	f.SetHandler(a)
	return a
}

// Receive implements fld.Handler: reassemble the RDMA message, then
// dispatch its request to the least-loaded lane (the front-end
// load-balancing unit).
//
// Fragments collect in the QP's scratch; a complete message leaves it as
// one exact-length copy, because its request aliases it until its lane
// fires and by then the scratch is taking the QP's next message.
func (a *AFU) Receive(data []byte, md fld.Metadata) {
	buf, ok := a.reasm[md.Tag]
	if md.Last && len(buf) == 0 {
		a.handle(slices.Clone(data), md.Tag)
		return
	}
	if !ok {
		buf = make([]byte, 0, a.f.Config().RxWQEBytes)
	}
	buf = append(buf, data...)
	if !md.Last {
		a.reasm[md.Tag] = buf
		return
	}
	a.reasm[md.Tag] = buf[:0]
	a.handle(slices.Clone(buf), md.Tag)
}

// handle decodes one request and runs it on a lane.
func (a *AFU) handle(buf []byte, tag uint32) {
	req, err := ParseRequest(buf)
	if err != nil {
		a.Bad++
		return
	}
	a.Requests++
	lane := a.pickLane()
	service := a.prm.PerMessage + sim.Duration(len(req.Payload))*a.prm.PerByte
	j := a.jobs.Get()
	*j = laneJob{a: a, req: req, tag: tag}
	a.eng.AtArg(lane.Acquire(service), laneDone, j)
}

// laneDone runs when a request leaves its lane: it builds the response in
// one buffer — its header, then the cipher's output written straight
// behind it (compute fills every byte) — and sends it back on the QP. The
// response is single-owner scratch from the engine's BufPool: send copies
// it into FLD's transmit pages, after which it is dead.
func laneDone(x any) {
	j := x.(*laneJob)
	a, req, tag := j.a, j.req, j.tag
	bitLen := resultBits(req)
	bufs := a.f.Engine().Bufs()
	resp := bufs.Get(HeaderBytes + (bitLen+7)/8)
	clear(resp[:HeaderBytes])
	hdr := req
	hdr.Op, hdr.BitLen = req.Op|respFlag, bitLen
	hdr.putHeader(resp)
	compute(resp[HeaderBytes:], req)
	j.req = Request{} // hold no message buffer while pooled
	a.jobs.Put(j)
	a.send(tag, resp)
	bufs.Put(resp)
}

// send transmits a response message on the FLD queue bound to the QP.
func (a *AFU) send(tag uint32, resp []byte) {
	q := 0
	if a.QueueFor != nil {
		q = a.QueueFor(tag)
	}
	if err := a.f.Send(q, resp, fld.Metadata{}); err != nil {
		a.Dropped++
		return
	}
	a.Responses++
}

// pickLane selects the lane that frees up first.
func (a *AFU) pickLane() *sim.Resource {
	best := a.lanes[0]
	for _, l := range a.lanes[1:] {
		if l.BusyUntil() < best.BusyUntil() {
			best = l
		}
	}
	return best
}

// resultBits is the bit length of a request's response payload.
func resultBits(req Request) int {
	switch req.Op {
	case OpEncrypt, OpDecrypt:
		return req.BitLen
	case OpAuth:
		return 32
	default:
		return 0
	}
}

// compute runs the real cipher into dst, the response payload.
func compute(dst []byte, req Request) {
	switch req.Op {
	case OpEncrypt, OpDecrypt:
		eea3(dst, req.Key, req.Count, req.Bearer, req.Direction, req.Payload, req.BitLen)
	case OpAuth:
		binary.BigEndian.PutUint32(dst,
			EIA3(req.Key, req.Count, req.Bearer, req.Direction, req.Payload, req.BitLen))
	}
}
