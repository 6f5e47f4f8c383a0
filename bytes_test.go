package flexdriver

import (
	"encoding/binary"
	"runtime"
	"testing"

	"flexdriver/internal/accel/echo"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// genDriver is the load generator's driver, as the benchmark sets it: CPU
// costs small enough that the generator is never the bottleneck, doorbells
// and completions batched by eight.
var genDriver = DriverParams{
	RxCost: 4 * Nanosecond, TxCost: 4 * Nanosecond,
	DoorbellBatch: 8, SignalEvery: 8,
}

// TestAllocsPerZuc4KOp pins the byte ledger of DESIGN.md "Simulator
// performance": what one 4 KiB encrypt costs the host allocator end to end
// — cryptodev client, RC endpoint, both NICs, the wire, FLD-R and the
// 8-lane ZUC AFU, the shape of the benchmark's zuc4k_rdma workload at a
// load the lanes keep up with. With each hop of the payload path copying
// a byte once into one buffer and the queues between hops reusing their
// arrays, each ZUC lane's completion riding a pooled record, and DMA-read
// completions and the FLD's copy-out to the AFU borrowed from the engine's
// BufPool, every frame, the request and the AFU's copy of it pooled, and
// the client's response lent from its reassembly scratch, an op costs 0.14
// allocations and 12 B (2.1 and 9.7 KB before the AFU's request was pooled
// and the response borrowed, 15.0 and 24.0 KB before frames were pooled,
// 24.2 and 37.9 KB before reads borrowed, 110.4 and 101.2 KB before the
// byte rule). The bounds, 0.5 and 500 B, leave room for a map or a slice
// growing inside the window (14 B under -race), not for one object per op:
// a copy of the payload, a frame or a lane closure.
func TestAllocsPerZuc4KOp(t *testing.T) {
	const (
		size     = 4096
		every    = 2500 * sim.Nanosecond
		warm     = 150 // every ring slot and receive buffer touched once: host-memory pages exist
		measured = 400
		maxPer   = 0.5
		maxBytes = 500.0
	)
	rp := NewRemotePair()
	rsrv := NewRServer(rp.Server.RT)
	rsrv.Listen("zuc")
	rp.Server.RT.Start()
	afu := zuc.NewAFU(rp.Server.FLD, rp.Engine(), 8, zuc.DefaultLaneParams())
	afu.QueueFor = rsrv.QueueFor
	ep, err := ConnectRDMA(rp.Client.Drv, rsrv, "zuc", RDMAConfig{SendEntries: 64, RecvEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	cd := zuc.NewCryptodev(rp.Engine(), ep)

	data := make([]byte, size)
	done, wrong := 0, 0
	ops := make([]zuc.Op, warm+measured)
	onDone := func(o *zuc.Op) {
		done++
		if len(o.Result) != size {
			wrong++
		}
	}
	eng := rp.Engine()
	sent := 0
	var tick func(any)
	tick = func(any) {
		if sent == len(ops) {
			return
		}
		ops[sent] = zuc.Op{Op: zuc.OpEncrypt, Key: [16]byte{1, 2, 3}, Count: uint32(sent), Data: data, Done: onDone}
		cd.Enqueue(&ops[sent])
		sent++
		eng.AfterArg(every, tick, nil)
	}
	eng.AfterArg(every, tick, nil)

	rp.RunUntil(warm * every)
	warmDone := done
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rp.Run()
	runtime.ReadMemStats(&after)

	n := done - warmDone
	if done != len(ops) || wrong != 0 || afu.Bad != 0 || afu.Dropped != 0 || n < measured {
		t.Fatalf("%d of %d ops completed (%d wrong-length, afu bad=%d dropped=%d, %d measured); the run must be lossless to price an op",
			done, len(ops), wrong, afu.Bad, afu.Dropped, n)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d ops: %.2f allocations and %.0f B allocated per 4 KiB op", n, per, bytes)
	if per > maxPer {
		t.Errorf("%.2f allocations per 4 KiB op, want <= %.1f", per, maxPer)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B allocated per 4 KiB op, want <= %.0f", bytes, maxBytes)
	}
}

// TestAllocsPerKVRequest pins the serving path's byte ledger (DESIGN.md
// "Simulator performance"): what one key-value request costs the host
// allocator end to end — the aggregated source's frame copy, the client
// port and NIC, the switch, the server NIC's RSS, FLD, the kv AFU and the
// response's whole way back — in the shape of the benchmark's kvserve100k
// workload cut down to one host, 2 000 flow-level connections and two kv
// cores. With the response marshalled once into pooled scratch, the
// connection table holding its rows by value, same-length PUTs stored in
// place, no closure on a PCIe read and read completions and receive
// copy-outs borrowed from the engine's BufPool, and every frame pooled and
// the source stamping one scratch, a request costs 0.2 allocations and
// 0.2 KB here (3.2 and 0.8 KB before frames were pooled, 7.9 and 1.7 KB on
// the benchmark before reads borrowed, 25.8 and 2.5 KB when every layer of
// every reply was its own buffer); the bounds leave room for this smaller
// run's map-growth share, not for a frame to be allocated or assembled
// layer by layer again.
func TestAllocsPerKVRequest(t *testing.T) {
	const (
		conns    = 2000
		keyBytes = 16
		valBytes = 128
		reqLen   = rpc.HeaderLen + keyBytes + valBytes
		mean     = conns * 400 * sim.Nanosecond // 4.3 Gbit/s offered: the per-core load, and so the doorbell and CQE batching, of the benchmark
		warm     = 300 * sim.Microsecond        // every ring slot and receive buffer touched once: host-memory pages exist
		stop     = 1300 * sim.Microsecond
		seqOff   = netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + 4
		maxPer   = 0.5
		maxBytes = 300.0
	)
	cl := NewCluster(WithDriver(genDriver), WithTelemetry(NewRegistry()))
	srv := cl.AddInnova("server")
	_, rt1 := srv.AddFLD(srv.FLD.Config())
	var afus []*kv.AFU
	var rqs []*nic.RQ
	for _, rt := range []*Runtime{srv.RT, rt1} {
		rt.CreateEthTxQueue(0, nil)
		NewEControlPlane(rt).InstallDefaultEgressToWire()
		rt.Start()
		afus = append(afus, kv.New(rt.FLD()))
		rqs = append(rqs, rt.RQ())
	}
	srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToTIR: &nic.TIR{RQs: rqs}}})

	var sent, answered int64
	reqs := make([]uint32, conns)
	src := cl.AddAggregatedClients("clients", AggregatedClientsConfig{
		Clients: conns, StreamSeed: 1000, Stop: stop, Rand: sim.NewLightRand,
		Setup: func(h *Host, ci int, _ *sim.Rand) ClientSetup {
			seg := tcp.Segment{SrcPort: uint16(2048 + ci), DstPort: 7777,
				Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
			req := rpc.Frame{Op: rpc.OpPut, Key: make([]byte, keyBytes), Val: make([]byte, valBytes)}
			return ClientSetup{Mean: mean, Flows: [][]byte{
				tcp.BuildFrame(h.NIC.MAC, srv.NIC.MAC, h.NIC.IP, srv.NIC.IP, seg, req.Marshal(nil))}}
		},
		OnSend: func(ci int, f []byte) {
			// Every eighth request is a PUT, the rest GETs of the same 256
			// keys; the sequence number follows the connection's stream.
			binary.BigEndian.PutUint32(f[seqOff:], reqs[ci]*reqLen)
			reqs[ci]++
			f[tcp.FrameOverhead+1] = rpc.OpGet
			if sent%8 == 0 {
				f[tcp.FrameOverhead+1] = rpc.OpPut
			}
			binary.BigEndian.PutUint64(f[tcp.FrameOverhead+rpc.IDOffset:], uint64(sent))
			f[tcp.FrameOverhead+rpc.HeaderLen] = byte(sent / 8)
			sent++
		},
	})
	src.Port.OnReceive = func([]byte, swdriver.RxMeta) { answered++ }
	sw := cl.Switch()
	sw.Program(srv.NIC.MAC, cl.PortOf(srv.NIC))
	sw.Program(src.Host.NIC.MAC, cl.PortOf(src.Host.NIC))

	cl.RunUntil(warm)
	warmAnswered := answered
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl.Run()
	runtime.ReadMemStats(&after)

	var served, hits, lost int64
	for _, a := range afus {
		served += a.Requests
		hits += a.Hits
		lost += a.Dropped + a.Malformed
	}
	n := answered - warmAnswered
	if answered != sent || served != sent || lost != 0 || n < 1500 || hits == 0 ||
		afus[0].Requests == 0 || afus[1].Requests == 0 {
		t.Fatalf("%d sent, %d served (%d + %d per core, %d hits), %d answered, %d lost, %d measured; the run must be lossless and use both cores to price a request",
			sent, served, afus[0].Requests, afus[1].Requests, hits, answered, lost, n)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d requests: %.1f allocations and %.0f B allocated per KV request", n, per, bytes)
	if per > maxPer {
		t.Errorf("%.1f allocations per KV request, want <= %.1f", per, maxPer)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B allocated per KV request, want <= %.0f", bytes, maxBytes)
	}
}

// TestRemotePairFootprint pins what building the benchmark's echo64_pair
// topology costs the host allocator — the deterministic stand-in for its
// sub-millisecond setup_s, which a timing cannot guard. The sequence is
// bench/echo.go's set-up with the generator left out. Records, freelists
// and BufPool classes are made on first use by the run, never here: a
// constructor that starts pre-filling one shows up in these two numbers.
// The byte budget sits 4 % over the 59 680 B measured under go1.24 once the
// FLD's descriptor pool and translation banks were made on first Send and
// first placement (275 168 B before; 389 544 B with 64 KiB host pages,
// where each host's posted receive descriptors zero-filled a whole page).
func TestRemotePairFootprint(t *testing.T) {
	const n, maxObjects, maxBytes = 200, 610, 62_100
	build := func() {
		reg := NewRegistry()
		rp := NewRemotePair(WithDriver(genDriver), WithTelemetry(reg))
		srv := rp.Server
		srv.RT.CreateEthTxQueue(0, nil)
		NewEControlPlane(srv.RT).InstallDefaultEgressToWire()
		srv.RT.Start()
		echo.New(srv.FLD)
		port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
		srv.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: srv.RT.RQ()}})
		rp.Client.NIC.ESwitch().AddRule(0, Rule{Action: Action{ToRQ: port.RQ()}})
	}
	build() // warm: package-level tables
	// Every build pays the deterministic cost; what varies lands on top of
	// it (under the race runtime sync.Pool drops a quarter of its Puts, so
	// fmt allocates a printer on some calls). The budget is on the cheapest
	// build, the mean is logged beside it.
	var before, after runtime.MemStats
	minObjects, minBytes := ^uint64(0), ^uint64(0)
	var sumObjects, sumBytes uint64
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		minObjects, minBytes = min(minObjects, objects), min(minBytes, bytes)
		sumObjects, sumBytes = sumObjects+objects, sumBytes+bytes
	}
	t.Logf("%d objects and %d bytes per pair (mean of %d builds: %.1f and %.0f)",
		minObjects, minBytes, n, float64(sumObjects)/n, float64(sumBytes)/n)
	if minObjects > maxObjects || minBytes > maxBytes {
		t.Errorf("per pair: %d objects (budget %d), %d bytes (budget %d)", minObjects, maxObjects, minBytes, maxBytes)
	}
}
