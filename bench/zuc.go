package main

import (
	"flexdriver"
	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/sim"
)

// zucGen is the cryptodev client's generator: a recycled pool of ops
// (an op returns to the pool when its Done fires) over one shared 4 KiB
// plaintext, so the run section's allocations are the simulator's.
type zucGen struct {
	eng      *sim.Engine
	cd       *zuc.Cryptodev
	rng      *sim.Rand
	m        *meter
	key      [16]byte
	data     []byte
	free     []*zuc.Op
	mean     sim.Duration
	from, to sim.Time
	stop     sim.Time
	sent     int64
	done     int64
	bad      int64 // completions whose result has the wrong length
	doneB    int64 // bytes completed inside the window
	lat      []float32
}

func zucTick(a any) {
	g := a.(*zucGen)
	if g.eng.Now() >= g.stop {
		return
	}
	t := g.m.genEnter()
	var op *zuc.Op
	if n := len(g.free); n > 0 {
		op, g.free = g.free[n-1], g.free[:n-1]
	} else {
		op = &zuc.Op{Op: zuc.OpEncrypt, Key: g.key, Data: g.data, Done: g.onDone}
	}
	g.sent++
	op.Count = uint32(g.sent)
	op.Result = nil
	g.m.genSendExit(t)
	g.cd.Enqueue(op)
	g.eng.AfterArg(g.rng.Exp(g.mean), zucTick, g)
}

func (g *zucGen) onDone(op *zuc.Op) {
	t := g.m.genEnter()
	g.done++
	if len(op.Result) != len(g.data) {
		g.bad++
	}
	if op.DoneAt >= g.from && op.DoneAt < g.to {
		g.doneB += int64(len(g.data))
	}
	if at := op.SubmittedAt; at >= g.from && at < g.to {
		g.lat = append(g.lat, float32((op.DoneAt - at).Microseconds()))
	}
	g.free = append(g.free, op)
	g.m.genRxExit(t)
}

// runZuc4k is zuc4k_rdma: the §7 disaggregated cipher — a client
// cryptodev driver over an FLD-R RDMA RC connection to the 8-lane ZUC
// AFU, 4 KiB encrypt requests arriving Poisson at 1.05× the closed-form
// goodput, so the accelerator stays saturated and the backlog drains
// after the sender stops.
func runZuc4k(cfg runConfig, m *meter) outcome {
	const (
		size   = 4096
		warmup = 150 * sim.Microsecond
		drain  = 150 * sim.Microsecond
	)
	window := scaled(20*sim.Millisecond, cfg.Scale, 100*sim.Microsecond)

	m.begin("setup.new_cluster")
	reg := flexdriver.NewRegistry()
	rp := flexdriver.NewRemotePair(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(reg),
		flexdriver.WithWorkers(cfg.Workers))
	m.end()

	m.begin("setup.add_server")
	rsrv := flexdriver.NewRServer(rp.Server.RT)
	rsrv.Listen("zuc")
	rp.Server.RT.Start()
	afu := zuc.NewAFU(rp.Server.FLD, rp.Engine(), 8, zuc.DefaultLaneParams())
	afu.QueueFor = rsrv.QueueFor
	m.end()

	m.begin("setup.add_clients")
	ep, err := flexdriver.ConnectRDMA(rp.Client.Drv, rsrv, "zuc",
		flexdriver.RDMAConfig{SendEntries: 512, RecvEntries: 128})
	var o outcome
	if err != nil {
		o.check("connect_rdma", false, "%v", err)
		m.end()
		if m.ready() {
			m.stop()
		}
		return o
	}
	model := perfmodel.DefaultZucModel().Goodput(size)
	mean := sim.Duration(float64(size*8) / (1.05 * model * 1e9) * float64(sim.Second))
	stop := warmup + window
	expect := int(float64(stop) / float64(mean))
	g := &zucGen{eng: rp.Engine(), cd: zuc.NewCryptodev(rp.Engine(), ep), rng: sim.NewRand(cfg.Seed), m: m,
		key: [16]byte{1, 2, 3}, data: make([]byte, size), mean: mean,
		from: warmup, to: stop, stop: stop,
		lat: make([]float32, 0, expect+expect/8+256)}
	fill := sim.NewRand(cfg.Seed ^ 0x5a)
	for i := range g.data {
		g.data[i] = byte(fill.Intn(256))
	}
	g.eng.AfterArg(g.rng.Exp(mean), zucTick, g)
	m.end()

	if !m.ready() {
		return outcome{}
	}
	runPhases(m, warmup, stop, stop+drain, rp.RunUntil, rp.Run)

	m.begin("snapshot")
	snap := reg.Snapshot()
	cl := rp.Cluster()
	settle(&o, snap, []fabNode{{"client", rp.Client.Fab}, {"server", rp.Server.Fab}}, cl.Pending(), cl.Engines())
	m.end()

	o.Attempted, o.Ops = g.sent, g.done-g.bad
	o.Failed = o.Attempted - o.Ops
	o.check("afu_served_every_request", afu.Bad == 0 && afu.Dropped == 0 && g.bad == 0,
		"%d unparseable, %d credit-stall drops, %d wrong-length results", afu.Bad, afu.Dropped, g.bad)
	o.Model = rttModel(g.lat, g.doneB, window)
	ledger(&o, snap, cl.Group().Stats(), "server")
	o.ModelErrPct = relErrPct(o.Model["model.goodput_gbps"], model)
	return o
}
