package zuc

import (
	"encoding/binary"

	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// Op is one asynchronous cipher operation, in the style of a DPDK
// cryptodev op. Submit with Cryptodev.Enqueue; OnComplete (or the op's
// Done callback) fires with the result.
type Op struct {
	Op        uint8
	Key       [16]byte
	Count     uint32
	Bearer    uint8
	Direction uint8
	Data      []byte

	// Result holds the processed payload (ciphertext/plaintext) or, for
	// OpAuth, is empty with MAC set.
	Result []byte
	MAC    uint32

	// SubmittedAt / DoneAt bracket the op for latency accounting.
	SubmittedAt sim.Time
	DoneAt      sim.Time

	// Done, when non-nil, is invoked on completion.
	Done func(*Op)

	id uint32
}

// Cryptodev is the client-side driver for the disaggregated ZUC
// accelerator, speaking the request format over an FLD-R connection. It
// is API-compatible in spirit with a local cryptodev PMD, which is the
// paper's point: the remote accelerator drops in without software changes.
type Cryptodev struct {
	eng      *sim.Engine
	ep       *swdriver.RDMAEndpoint
	nextID   uint32
	inflight map[uint32]*Op

	// Completed counts finished ops; BadResponses counts responses dropped
	// because they did not parse or were too short for their opcode (wire
	// corruption, a buggy peer) — their ops stay in flight.
	Completed    int64
	BadResponses int64
}

// NewCryptodev wraps a connected FLD-R endpoint.
func NewCryptodev(eng *sim.Engine, ep *swdriver.RDMAEndpoint) *Cryptodev {
	c := &Cryptodev{eng: eng, ep: ep, inflight: make(map[uint32]*Op)}
	ep.OnMessage = c.onResponse
	return c
}

// Enqueue submits one operation to the remote accelerator.
func (c *Cryptodev) Enqueue(op *Op) {
	c.nextID++
	op.id = c.nextID
	op.SubmittedAt = c.eng.Now()
	c.inflight[op.id] = op
	req := Request{
		Op: op.Op, Bearer: op.Bearer, Direction: op.Direction,
		Count: op.Count, Key: op.Key, ID: op.id,
		BitLen: len(op.Data) * 8, Payload: op.Data,
	}
	c.ep.Send(req.Marshal())
}

func (c *Cryptodev) onResponse(msg []byte) {
	resp, err := ParseRequest(msg)
	if err != nil {
		c.BadResponses++
		return
	}
	if resp.Op == OpAuth && len(resp.Payload) < 4 {
		c.BadResponses++ // no room for the MAC
		return
	}
	op := c.inflight[resp.ID]
	if op == nil {
		return
	}
	delete(c.inflight, resp.ID)
	op.DoneAt = c.eng.Now()
	if resp.Op == OpAuth {
		op.MAC = binary.BigEndian.Uint32(resp.Payload)
	} else {
		op.Result = resp.Payload
	}
	c.Completed++
	if op.Done != nil {
		op.Done(op)
	}
}

// SoftCryptodev is the CPU baseline: DPDK's software ZUC driver (backed
// by the Intel Multi-Buffer Crypto library in the paper). It runs the
// real cipher and charges calibrated single-core CPU time.
type SoftCryptodev struct {
	eng *sim.Engine
	cpu *sim.Resource

	Completed int64
}

// The software cipher's cost, calibrated to the paper's software ZUC
// driver: ~4.4 Gbps at 512 B requests, a quarter of FLD's 17.6 Gbps.
const (
	softPerMessage = 80 * sim.Nanosecond
	softPerByte    = 1636 * sim.Picosecond
)

// NewSoftCryptodev builds the software baseline on its own core.
func NewSoftCryptodev(eng *sim.Engine) *SoftCryptodev {
	return &SoftCryptodev{eng: eng, cpu: sim.NewResource(eng)}
}

// Enqueue runs the op on the CPU model.
func (s *SoftCryptodev) Enqueue(op *Op) {
	op.SubmittedAt = s.eng.Now()
	cost := softPerMessage + sim.Duration(len(op.Data))*softPerByte
	s.eng.After(s.cpu.Acquire(cost)-s.eng.Now(), func() {
		switch op.Op {
		case OpEncrypt, OpDecrypt:
			op.Result = EEA3(op.Key, op.Count, op.Bearer, op.Direction, op.Data, len(op.Data)*8)
		case OpAuth:
			op.MAC = EIA3(op.Key, op.Count, op.Bearer, op.Direction, op.Data, len(op.Data)*8)
		}
		op.DoneAt = s.eng.Now()
		s.Completed++
		if op.Done != nil {
			op.Done(op)
		}
	})
}
