package nic_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexdriver/internal/ethswitch"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
)

// segBed is one bare segment with the deliver callback every owner
// writes: count Delivered, then hand the frame on (here: log its arrival
// instant).
type segBed struct {
	link     nic.Link
	rate     sim.BitRate
	latency  sim.Duration
	seg      nic.Segment
	arrivals []sim.Time
}

func newSegBed(dir int, eng *sim.Engine) *segBed {
	b := &segBed{rate: 25 * sim.Gbps, latency: 500 * sim.Nanosecond}
	b.seg.Init(&b.link, dir, &b.rate, &b.latency, eng, func([]byte) {
		b.link.Delivered[dir]++
		b.arrivals = append(b.arrivals, eng.Now())
	})
	return b
}

// TestSegmentTransit pins a frame's transit over Ethernet once, for both
// directions: serialization at the rate in force when the frame was
// offered, onSent before any hook is consulted, a lost frame occupying
// the serializer but counting only as Lost, Delay shifting and Dup
// trailing by exactly one serialization time (and the two composing),
// and per-direction Sent/Delivered/Lost accounting.
func TestSegmentTransit(t *testing.T) {
	frame := make([]byte, 600)
	const lat, extra = 500 * sim.Nanosecond, 700 * sim.Nanosecond
	ser := (25 * sim.Gbps).Serialize(len(frame) + nic.EthWireOverhead)
	always := func(int, []byte) bool { return true }
	delay := func(int, []byte) sim.Duration { return extra }

	rows := []struct {
		name   string
		hooks  func(l *nic.Link, log *[]string)
		sends  int         // frames offered back to back at time zero
		retune sim.BitRate // when set, the rate in force from the second send on
		want   []sim.Time  // arrival instants
		lost   int64
		log    []string
	}{
		{name: "plain", sends: 1, want: []sim.Time{ser + lat}},
		{name: "onSent before the hooks", sends: 1, want: []sim.Time{ser + lat + extra, 2*ser + lat + extra},
			hooks: func(l *nic.Link, log *[]string) {
				l.Loss = func(int, []byte) bool { *log = append(*log, "loss"); return false }
				l.Delay = func(int, []byte) sim.Duration { *log = append(*log, "delay"); return extra }
				l.Dup = func(int, []byte) bool { *log = append(*log, "dup"); return true }
			},
			log: []string{"sent", "loss", "delay", "dup"}},
		{name: "loss occupies the serializer", sends: 2, want: []sim.Time{2*ser + lat}, lost: 1,
			hooks: func(l *nic.Link, _ *[]string) {
				n := 0
				l.Loss = func(int, []byte) bool { n++; return n == 1 }
			}},
		{name: "delay shifts", sends: 1, want: []sim.Time{ser + lat + extra},
			hooks: func(l *nic.Link, _ *[]string) { l.Delay = delay }},
		{name: "dup trails by one serialization", sends: 1, want: []sim.Time{ser + lat, 2*ser + lat},
			hooks: func(l *nic.Link, _ *[]string) { l.Dup = always }},
		{name: "dup and delay compose", sends: 1, want: []sim.Time{ser + lat + extra, 2*ser + lat + extra},
			hooks: func(l *nic.Link, _ *[]string) { l.Dup, l.Delay = always, delay }},
		{name: "retune applies to later frames", sends: 2, retune: 12.5 * sim.Gbps,
			want: []sim.Time{ser + lat, 3*ser + lat}},
	}
	for _, row := range rows {
		for dir := 0; dir < 2; dir++ {
			t.Run(fmt.Sprintf("%s/dir%d", row.name, dir), func(t *testing.T) {
				eng := sim.NewEngine()
				b := newSegBed(dir, eng)
				var log []string
				if row.hooks != nil {
					row.hooks(&b.link, &log)
				}
				for i := 0; i < row.sends; i++ {
					if i == 1 && row.retune != 0 {
						b.rate = row.retune
					}
					b.seg.Send(frame, func() { log = append(log, "sent") })
				}
				eng.Run()

				if !reflect.DeepEqual(b.arrivals, row.want) {
					t.Errorf("arrivals at %v, want %v", b.arrivals, row.want)
				}
				if row.log != nil && !reflect.DeepEqual(log, row.log) {
					t.Errorf("call order %v, want %v", log, row.log)
				}
				var sent, delivered, lost [2]int64
				sent[dir], delivered[dir], lost[dir] = int64(row.sends), int64(len(row.want)), row.lost
				if b.link.Sent != sent || b.link.Delivered != delivered || b.link.Lost != lost {
					t.Errorf("Sent=%v Delivered=%v Lost=%v, want %v %v %v",
						b.link.Sent, b.link.Delivered, b.link.Lost, sent, delivered, lost)
				}
			})
		}
	}
}

// countEP is the smallest ethswitch.Endpoint: it counts arrivals.
type countEP struct {
	eng  *sim.Engine
	port nic.Port
	got  int
}

func (s *countEP) AttachPort(p nic.Port) { s.port = p }
func (s *countEP) Ingress([]byte)        { s.got++ }
func (s *countEP) Engine() *sim.Engine   { return s.eng }

// TestSegmentTransitZeroAlloc pins the forwarding machinery at zero
// allocations per frame, delivery included: the transit record and the
// conduit's delivery node are recycled and every stage is scheduled
// through arg-form callbacks. Measured on a bare segment and across a
// switch hop (segment in, FDB lookup, output queue, segment out).
func TestSegmentTransitZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b := newSegBed(0, eng)
	b.arrivals = make([]sim.Time, 0, 256)
	frame := make([]byte, 600)
	one := func() {
		b.seg.Send(frame, nil)
		eng.Run()
	}
	one() // warm: the transit record and the delivery node
	if avg := testing.AllocsPerRun(100, one); avg != 0 {
		t.Errorf("segment transit: %.1f allocs per frame, want 0", avg)
	}
	if b.link.Sent[0] != 102 || b.link.Delivered[0] != 102 {
		t.Errorf("Sent=%d Delivered=%d, want 102 each", b.link.Sent[0], b.link.Delivered[0])
	}

	sw := ethswitch.New(eng, ethswitch.Config{})
	src, dst := &countEP{eng: eng}, &countEP{eng: eng}
	sw.Connect(src)
	sw.Program(netpkt.MACFrom(2), sw.Connect(dst))
	hop := (netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(1), EtherType: netpkt.EtherTypeIPv4}).Marshal(nil)
	hop = append(hop, make([]byte, 100)...)
	fwd := func() {
		src.port.Send(hop, nil)
		eng.Run()
	}
	fwd() // warm: both segments' records, the FDB entry for the source
	if avg := testing.AllocsPerRun(100, fwd); avg != 0 {
		t.Errorf("switch hop: %.1f allocs per frame, want 0", avg)
	}
	if dst.got != 102 || src.got != 0 {
		t.Errorf("switch delivered %d/%d frames to dst/src, want 102/0", dst.got, src.got)
	}
}

// TestSegmentAcrossShardsWorkerInvariant runs a cable's two directions
// with Delay and Dup active, so later frames overtake earlier ones and
// duplicates interleave with originals. Each end must still see its
// arrivals in time order, every frame accounted for.
func TestSegmentAcrossShardsWorkerInvariant(t *testing.T) {
	type arrival struct {
		at sim.Time
		id byte
	}
	eng := sim.NewEngine()
	var (
		link    nic.Link
		rate    = 25 * sim.Gbps
		latency = 500 * sim.Nanosecond
		segs    [2]nic.Segment
		got     [2][]arrival // by receiving end
		seen    [2]int       // hook state, one cell per direction
	)
	link.Delay = func(dir int, _ []byte) sim.Duration {
		seen[dir]++
		if seen[dir]%3 == 1 {
			return 900 * sim.Nanosecond
		}
		return 0
	}
	link.Dup = func(dir int, f []byte) bool { return f[0]%4 == 0 }
	for dir := range segs {
		rx := 1 - dir
		segs[dir].Init(&link, dir, &rate, &latency, eng, func(f []byte) {
			link.Delivered[dir]++
			got[rx] = append(got[rx], arrival{eng.Now(), f[0]})
			if rx == 1 {
				segs[1].Send(f, nil) // end 1 echoes everything back
			}
		})
	}
	for id := byte(0); id < 40; id++ {
		segs[0].Send([]byte{id, 0, 0, 0}, nil)
	}
	eng.Run()

	if len(got[1]) != 50 || len(got[0]) != 70 {
		// 40 frames + 10 duplicates out; all 50 echoed, the 20 copies of
		// the duplicated ids duplicated again.
		t.Fatalf("end 1 saw %d arrivals and end 0 %d, want 50 and 70", len(got[1]), len(got[0]))
	}
	overtaken := false
	for rx, seq := range got {
		for i := 1; i < len(seq); i++ {
			overtaken = overtaken || rx == 1 && seq[i].id < seq[i-1].id
			if seq[i].at < seq[i-1].at {
				t.Fatalf("end %d: arrival %d at %v precedes arrival %d at %v: time order lost",
					rx, i, seq[i].at, i-1, seq[i-1].at)
			}
		}
	}
	if !overtaken {
		t.Fatal("no frame overtook an earlier one: the workload lost its overtaking")
	}
}
