package ethswitch

import (
	"testing"
	"unsafe"

	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
)

// poolEP is an Endpoint on an engine of its own that ends every frame it
// receives, as a NIC's receive path does: it counts the frame and puts it
// back in its engine's pool.
type poolEP struct {
	eng  *sim.Engine
	port nic.Port
	got  int
}

func (e *poolEP) AttachPort(p nic.Port) { e.port = p }
func (e *poolEP) Engine() *sim.Engine   { return e.eng }
func (e *poolEP) Ingress(frame []byte) {
	e.got++
	e.eng.Bufs().Put(frame)
}

// send offers ep's port a pooled copy of f.
func (e *poolEP) send(f []byte) { e.port.Send(e.eng.Bufs().Clone(f), nil) }

// TestFrameEndsReturnToPool drives each place a frame's life ends in the
// switch — delivery, the tail drop, the malformed, filtered and reboot
// drops, a flood's copies, and the loss and duplication hooks of both
// directions of a port — with the switch and each of three endpoints on
// an engine of its own, and wants every frame back in a pool, once: the
// pools of all four engines balance and no buffer was put back twice.
func TestFrameEndsReturnToPool(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		run     func(sw *Switch, eps []*poolEP)
		got     int // frames the endpoints receive
		dropped func(sw *Switch) int64
	}{
		{"forwarded", Config{}, func(sw *Switch, eps []*poolEP) {
			sw.Program(mac(1), sw.Ports()[1])
			eps[0].send(frameBetween(mac(0), mac(1), 100))
		}, 1, nil},
		{"flooded", Config{}, func(sw *Switch, eps []*poolEP) {
			eps[0].send(frameBetween(mac(0), mac(9), 100))
		}, 2, func(sw *Switch) int64 { return sw.Stats.Floods }},
		{"filtered", Config{}, func(sw *Switch, eps []*poolEP) {
			sw.Program(mac(1), sw.Ports()[0])
			eps[0].send(frameBetween(mac(0), mac(1), 100))
		}, 0, func(sw *Switch) int64 { return sw.Stats.Filtered }},
		{"malformed", Config{}, func(sw *Switch, eps []*poolEP) {
			eps[0].send([]byte{1, 2, 3})
		}, 0, func(sw *Switch) int64 { return sw.Stats.Malformed }},
		{"reboot drop", Config{}, func(sw *Switch, eps []*poolEP) {
			sw.Crash()
			eps[0].send(frameBetween(mac(0), mac(1), 100))
		}, 0, func(sw *Switch) int64 { return sw.Stats.RebootDrops }},
		{"tail drop", Config{QueueFrames: 1}, func(sw *Switch, eps []*poolEP) {
			sw.Program(mac(2), sw.Ports()[2])
			for range 3 {
				eps[0].send(frameBetween(mac(0), mac(2), 1000))
				eps[1].send(frameBetween(mac(1), mac(2), 1000))
			}
		}, 2, func(sw *Switch) int64 { return sw.Ports()[2].Counters.TailDrops }},
		{"lost both ways", Config{}, func(sw *Switch, eps []*poolEP) {
			sw.Program(mac(1), sw.Ports()[1])
			sw.Program(mac(2), sw.Ports()[2])
			sw.Ports()[0].Link().Loss = func(dir int, _ []byte) bool { return dir == 0 }
			sw.Ports()[2].Link().Loss = func(dir int, _ []byte) bool { return dir == 1 }
			eps[0].send(frameBetween(mac(0), mac(1), 100))
			eps[1].send(frameBetween(mac(1), mac(2), 100))
		}, 0, func(sw *Switch) int64 { return sw.Ports()[0].Link().Lost[0] + sw.Ports()[2].Link().Lost[1] }},
		{"duplicated both ways", Config{}, func(sw *Switch, eps []*poolEP) {
			sw.Program(mac(1), sw.Ports()[1])
			sw.Ports()[0].Link().Dup = func(int, []byte) bool { return true }
			sw.Ports()[1].Link().Dup = func(int, []byte) bool { return true }
			eps[0].send(frameBetween(mac(0), mac(1), 100))
		}, 4, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			sw := New(eng, tc.cfg)
			eps := make([]*poolEP, 3)
			for i := range eps {
				eps[i] = &poolEP{eng: eng}
				sw.Connect(eps[i])
			}
			tc.run(sw, eps)
			eng.Run()
			got := 0
			for _, ep := range eps {
				got += ep.got
			}
			if got != tc.got {
				t.Errorf("endpoints received %d frames, want %d", got, tc.got)
			}
			if tc.dropped != nil && tc.dropped(sw) == 0 {
				t.Error("the end this row drives was not counted")
			}
			checkPools(t, eng)
		})
	}
}

// checkPools fails unless the engines' pools balance (Gets − Puts summed
// to zero) and no buffer was put back twice: a buffer two owners share
// balances the count but sits twice on a freelist, so draining every
// class of the pools (64 buffers a size) hands it out twice. The drained
// buffers go back after.
func checkPools(t *testing.T, engs ...*sim.Engine) {
	t.Helper()
	var out int64
	for _, e := range engs {
		out += e.Bufs().Outstanding()
	}
	if out != 0 {
		t.Errorf("%d frames outstanding across the engines, want 0", out)
	}
	seen := map[*byte]bool{}
	for _, e := range engs {
		var held [][]byte
		for size := 64; size <= 16384; size *= 2 {
			for range 64 {
				b := e.Bufs().Get(size)
				if p := unsafe.SliceData(b); seen[p] {
					t.Errorf("buffer %p handed out twice: it was put back twice", p)
				} else {
					seen[p] = true
				}
				held = append(held, b)
			}
		}
		for _, b := range held {
			e.Bufs().Put(b)
		}
	}
}
