package main

import (
	"fmt"
	"runtime"
	"time"

	"flexdriver"
	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/cuckoo"
	"flexdriver/internal/ethswitch"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/rpc"
	"flexdriver/internal/scenario"
	"flexdriver/internal/sim"
	"flexdriver/internal/tcp"
	"flexdriver/internal/telemetry"
)

// A probe times one public entry point of one layer in isolation, so a
// later change to that layer has a number that moves before (and
// whether or not) an end-to-end metric does. prepare builds state once
// per sample and returns the timed body, which performs n operations.
type probe struct {
	Name    string // probe.<layer>.<op>
	N       int    // operations per sample
	Allocs  bool   // also report <name>_allocs
	prepare func(n int) func()
}

// probeSamples is how many samples each probe takes; the report is the
// median.
const probeSamples = 5

// probeBatch is how many operations the event-driven probes keep in
// flight before draining the engine, so the event heap stays at the
// depth the workloads see rather than growing with n.
const probeBatch = 32

// sink keeps results alive so the compiler cannot drop a probed call.
var sink uint64

// runProbes measures every probe at the given scale (1 = published
// iteration counts; the tier-1 test uses a tiny one).
func runProbes(scale float64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		n := int(float64(p.N) * scale)
		if n < 8 {
			n = 8
		}
		ns := make([]float64, 0, probeSamples)
		allocs := make([]float64, 0, probeSamples)
		for s := 0; s < probeSamples; s++ {
			body := p.prepare(n)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t := time.Now()
			body()
			d := time.Since(t)
			runtime.ReadMemStats(&after)
			ns = append(ns, refAdjust(d)*1e9/float64(n)) // reference nanoseconds
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		}
		out[p.Name+"_ns"] = summarize(ns).Median
		if p.Allocs {
			out[p.Name+"_allocs"] = summarize(allocs).Median
		}
	}
	return out
}

// probeNames lists every metric runProbes emits, in report order.
func probeNames() []string {
	var names []string
	for _, p := range probes {
		names = append(names, p.Name+"_ns")
		if p.Allocs {
			names = append(names, p.Name+"_allocs")
		}
	}
	return names
}

// ticker is a self-rescheduling engine event: the shape every NIC/wire
// scheduler in the simulator uses.
type ticker struct {
	e        *sim.Engine
	n, limit int
}

func tickerRun(a any) {
	s := a.(*ticker)
	s.n++
	if s.n < s.limit {
		s.e.AfterArg(sim.Nanosecond, tickerRun, s)
	}
}

type timerTicker struct {
	t        *sim.Timer
	n, limit int
}

func timerTickerRun(a any) {
	s := a.(*timerTicker)
	s.n++
	if s.n < s.limit {
		s.t.Reset(sim.Nanosecond)
	}
}

func nop(any) {}

// eventProbe times one AfterArg+dispatch with depth-1 other events
// parked in the heap.
func eventProbe(depth int) func(n int) func() {
	return func(n int) func() {
		e := sim.NewEngine()
		far := sim.Time(1) << 60
		for i := 1; i < depth; i++ {
			e.AtArg(far+sim.Time(i), nop, nil)
		}
		s := &ticker{e: e, limit: n}
		e.AfterArg(0, tickerRun, s)
		return func() { e.RunUntil(far - 1) }
	}
}

// pingPong bounces one message between two sharded engines.
type pingPong struct {
	a, b     *sim.Engine
	ab, ba   *sim.Conduit
	n, limit int
	lat      sim.Duration
	frame    []byte
}

// stubEndpoint is the smallest ethswitch.Endpoint: it counts arrivals.
type stubEndpoint struct {
	eng  *sim.Engine
	port nic.Port
	got  int
}

func (s *stubEndpoint) AttachPort(p nic.Port) { s.port = p }
func (s *stubEndpoint) Ingress([]byte)        { s.got++ }
func (s *stubEndpoint) Engine() *sim.Engine   { return s.eng }

// probeFrame is a 512-byte UDP frame from node 1 to node 2.
func probeFrame() []byte {
	return udpFrameAddr(netpkt.MACFrom(1), netpkt.MACFrom(2), netpkt.IPFrom(1), netpkt.IPFrom(2), 4000, 7777, 512)
}

var probes = []probe{
	{"probe.sim.event", 1_000_000, true, eventProbe(1)},
	{"probe.sim.event_d4096", 500_000, false, eventProbe(4096)},
	{"probe.sim.timer_reset", 1_000_000, false, func(n int) func() {
		e := sim.NewEngine()
		s := &timerTicker{limit: n}
		s.t = e.NewTimer(timerTickerRun, s)
		s.t.Reset(sim.Nanosecond)
		return e.Run
	}},
	{"probe.sim.bufpool_roundtrip", 2_000_000, true, func(n int) func() {
		p := sim.NewBufPool()
		p.Put(p.Get(512))
		return func() {
			for i := 0; i < n; i++ {
				p.Put(p.Get(512))
			}
		}
	}},
	{"probe.sim.group.xshard_msg", 200_000, false, func(n int) func() {
		g := sim.NewGroup()
		g.SetLookahead(500 * sim.Nanosecond)
		g.SetWorkers(1)
		pp := &pingPong{a: g.NewEngine(), b: g.NewEngine(), limit: n,
			lat: 500 * sim.Nanosecond, frame: make([]byte, 64)}
		pp.ab = sim.NewConduit(pp.a, pp.b, func(f []byte) {
			if pp.n++; pp.n < pp.limit {
				pp.ba.Send(pp.b.Now()+pp.lat, f)
			}
		})
		pp.ba = sim.NewConduit(pp.b, pp.a, func(f []byte) {
			if pp.n++; pp.n < pp.limit {
				pp.ab.Send(pp.a.Now()+pp.lat, f)
			}
		})
		pp.a.After(0, func() { pp.ab.Send(pp.a.Now()+pp.lat, pp.frame) })
		return g.Run
	}},
	{"probe.pcie.write64", 100_000, true, func(n int) func() {
		eng, src, dst := pciePair()
		data := make([]byte, 64)
		return func() {
			for i := 0; i < n; i += probeBatch {
				for j := 0; j < probeBatch; j++ {
					src.Write(dst, data, nil)
				}
				eng.Run()
			}
		}
	}},
	{"probe.pcie.read4k", 20_000, true, func(n int) func() {
		eng, src, dst := pciePair()
		done := func(c pcie.Completion) { sink += uint64(len(c.Data)) }
		return func() {
			for i := 0; i < n; i += probeBatch {
				for j := 0; j < probeBatch; j++ {
					src.Read(dst, 4096, done)
				}
				eng.Run()
			}
		}
	}},
	{"probe.netpkt.parse_eth_ip_udp", 1_000_000, false, func(n int) func() {
		f := probeFrame()
		return func() {
			for i := 0; i < n; i++ {
				_, l3, _ := netpkt.ParseEth(f)
				_, l4, _ := netpkt.ParseIPv4(l3)
				u, _, _ := netpkt.ParseUDP(l4)
				sink += uint64(u.DstPort)
			}
		}
	}},
	{"probe.netpkt.toeplitz", 250_000, false, func(n int) func() {
		f := probeFrame()
		return func() {
			for i := 0; i < n; i++ {
				sink += uint64(netpkt.RSSHash(f))
			}
		}
	}},
	{"probe.cuckoo.lookup_hit", 4_000_000, false, func(n int) func() {
		t := cuckoo.New(4096)
		for k := uint64(0); k < 2048; k++ {
			t.Insert(k*0x9e3779b97f4a7c15, uint32(k))
		}
		return func() {
			for i := 0; i < n; i++ {
				v, _ := t.Lookup(uint64(i&2047) * 0x9e3779b97f4a7c15)
				sink += uint64(v)
			}
		}
	}},
	{"probe.cuckoo.insert_half_load", 1_000_000, false, func(n int) func() {
		// Fill to half load, then time insert+delete pairs at that load.
		t := cuckoo.New(4096)
		for k := uint64(0); k < 2048; k++ {
			t.Insert(k*0x9e3779b97f4a7c15, uint32(k))
		}
		return func() {
			for i := 0; i < n; i++ {
				k := uint64(i+4096) * 0x9e3779b97f4a7c15
				t.Insert(k, uint32(i))
				t.Delete(k)
			}
		}
	}},
	{"probe.nic.wqe_cqe_codec", 1_000_000, true, func(n int) func() {
		w := nic.SendWQE{Opcode: nic.OpSend, Index: 7, Signal: true, Addr: 0x1000, Len: 512}
		c := nic.CQE{Opcode: nic.CQESend, Index: 7}
		var wb [nic.SendWQESize]byte
		var cb [nic.CQESize]byte
		return func() {
			for i := 0; i < n; i++ {
				w.Index = uint16(i)
				w.MarshalInto(wb[:])
				pw, _ := nic.ParseSendWQE(wb[:])
				c.Index = pw.Index
				c.MarshalInto(cb[:])
				pc, _ := nic.ParseCQE(cb[:])
				sink += uint64(pc.Index)
			}
		}
	}},
	{"probe.ethswitch.forward", 100_000, true, func(n int) func() {
		eng := sim.NewEngine()
		sw := ethswitch.New(eng, ethswitch.Config{})
		a, b := &stubEndpoint{eng: eng}, &stubEndpoint{eng: eng}
		pa, pb := sw.Connect(a), sw.Connect(b)
		sw.Program(netpkt.MACFrom(1), pa)
		sw.Program(netpkt.MACFrom(2), pb)
		f := probeFrame()
		return func() {
			for i := 0; i < n; i += probeBatch {
				for j := 0; j < probeBatch; j++ {
					pa.Send(f, nil)
				}
				eng.Run()
			}
			sink += uint64(b.got)
		}
	}},
	{"probe.tcp.conn_segment", 100_000, true, func(n int) func() {
		eng := sim.NewEngine()
		a := tcp.New(eng, tcp.Config{SrcPort: 1, DstPort: 2})
		b := tcp.New(eng, tcp.Config{SrcPort: 2, DstPort: 1})
		a.Transmit = func(s tcp.Segment, p []byte) { b.Ingress(s, p) }
		b.Transmit = func(s tcp.Segment, p []byte) { a.Ingress(s, p) }
		b.OnDeliver = func(p []byte) { b.Consume(len(p)) }
		tcp.Connect(a, b)
		msg := make([]byte, 512)
		return func() {
			for i := 0; i < n; i++ {
				if a.Send(msg) != nil {
					panic("bench: tcp probe connection left Established")
				}
				eng.Run()
			}
		}
	}},
	{"probe.tcp.frame_codec", 100_000, true, func(n int) func() {
		seg := tcp.Segment{SrcPort: 2048, DstPort: 7777, Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
		payload := make([]byte, 160)
		return func() {
			for i := 0; i < n; i++ {
				seg.Seq = uint32(i)
				f := tcp.BuildFrame(netpkt.MACFrom(1), netpkt.MACFrom(2), netpkt.IPFrom(1), netpkt.IPFrom(2), seg, payload)
				info, _, _ := tcp.ParseFrame(f)
				sink += uint64(info.Seg.Seq)
			}
		}
	}},
	{"probe.rpc.decode", 250_000, true, func(n int) func() {
		req := rpc.Frame{Op: rpc.OpPut, ID: 1, Key: make([]byte, 16), Val: make([]byte, 128)}.Marshal(nil)
		var d rpc.Decoder
		return func() {
			for i := 0; i < n; i++ {
				for _, f := range d.Feed(req) {
					sink += f.ID
				}
			}
		}
	}},
	{"probe.telemetry.counter_inc", 8_000_000, false, func(n int) func() {
		c := telemetry.New().Counter("probe/counter")
		return func() {
			for i := 0; i < n; i++ {
				c.Inc()
			}
			sink += uint64(c.Value())
		}
	}},
	{"probe.telemetry.snapshot_hash", 40, true, func(n int) func() {
		// A cluster16-sized tree: one 4-core server and 16 hosts, idle.
		reg := flexdriver.NewRegistry()
		cl := flexdriver.NewCluster(flexdriver.WithTelemetry(reg), flexdriver.WithWorkers(1))
		buildEchoServer(cl, 4, func(*flexdriver.Runtime) {})
		for i := 0; i < 16; i++ {
			cl.AddHost(fmt.Sprintf("client%d", i))
		}
		return func() {
			for i := 0; i < n; i++ {
				sink += uint64(len(reg.Snapshot().Hash()))
			}
		}
	}},
	{"probe.workload.agg_setup_per_client", 100_000, true, func(n int) func() {
		return func() { sink += uint64(aggSource(n).Clients()) }
	}},
	{"probe.workload.agg_emit", 50_000, true, func(n int) func() {
		// K = 100 000 clients emitting into a null port: a crashed
		// driver drops every Send on entry, so what is left is the
		// source's own heap, copy and callback work.
		k := 100_000
		if n < k {
			k = n
		}
		src := aggSource(k)
		src.Host.Drv.Crash()
		eng := src.Host.Engine()
		// Mean per-client gap 1 ms, so n frames take n/k ms.
		until := sim.Duration(float64(n) / float64(k) * float64(sim.Millisecond))
		return func() {
			eng.RunUntil(until)
			sink += uint64(src.TotalSent())
		}
	}},
	{"probe.scenario.generate", 1_000, true, func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				sink += uint64(scenario.Generate(int64(1 + i%sweepBand)).Clients)
			}
		}
	}},
	{"probe.accel.zuc.eea3_4k", 1_000, false, func(n int) func() {
		data := make([]byte, 4096)
		key := [16]byte{1, 2, 3}
		return func() {
			for i := 0; i < n; i++ {
				sink += uint64(zuc.EEA3(key, uint32(i), 0, 0, data, len(data)*8)[0])
			}
		}
	}},
}

// pciePair attaches two memories to one fabric and returns the source
// port plus an address inside the destination's BAR.
func pciePair() (*sim.Engine, *pcie.Port, uint64) {
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng)
	a, b := hostmem.New("a", 1<<20), hostmem.New("b", 1<<20)
	src := fab.Attach(a, pcie.Gen3x8())
	fab.Attach(b, pcie.Gen3x8())
	return eng, src, fab.AddrOf(b, 0)
}

// aggSource builds one AggregatedClients host folding k single-flow
// Poisson clients (mean gap 1 ms each, LightRand streams — the
// kvserve100k shape) on a standalone engine.
func aggSource(k int) *flexdriver.AggregatedClients {
	h := flexdriver.NewHost(flexdriver.NewEngine(), "agg", flexdriver.WithDriver(genDriver()))
	frame := probeFrame()
	return flexdriver.AttachAggregatedClients(h, flexdriver.AggregatedClientsConfig{
		Clients:    k,
		StreamSeed: 1000,
		Stop:       sim.Second,
		Rand:       sim.NewLightRand,
		Setup: func(*flexdriver.Host, int, *sim.Rand) flexdriver.ClientSetup {
			return flexdriver.ClientSetup{Flows: [][]byte{frame}, Mean: sim.Millisecond}
		},
	})
}
