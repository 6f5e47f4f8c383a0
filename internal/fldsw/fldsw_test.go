package fldsw

import (
	"bytes"
	"strings"
	"testing"

	"flexdriver/internal/fld"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// innova builds a single NIC+FLD node plus a host driver, like the
// testbed facade does, but at this package's level.
type innova struct {
	eng *sim.Engine
	fab *pcie.Fabric
	mem *hostmem.Memory
	nic *nic.NIC
	fld *fld.FLD
	rt  *Runtime
	drv *swdriver.Driver
}

func newInnova(t *testing.T) *innova { return newInnovaWith(fld.DefaultConfig()) }

func newInnovaWith(cfg fld.Config) *innova {
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng)
	mem := hostmem.New("mem", 1<<28)
	fab.Attach(mem, pcie.Gen3x8())
	wide := pcie.Gen3x8()
	wide.Lanes = 16
	n := nic.New("nic", eng, nic.DefaultParams())
	n.AttachPCIe(fab, wide)
	f := fld.New(eng, cfg)
	f.AttachPCIe(fab, pcie.Gen3x8())
	rt := NewRuntime(eng, fab, mem, n, f)
	prm := swdriver.DefaultParams()
	prm.JitterProb = 0
	drv := swdriver.New(eng, fab, mem, n, prm)
	return &innova{eng: eng, fab: fab, mem: mem, nic: n, fld: f, rt: rt, drv: drv}
}

func udpFrame(srcID int, sport, dport uint16, n int) []byte {
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), make([]byte, n)...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: netpkt.IPFrom(srcID), Dst: netpkt.IPFrom(2)}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: netpkt.MACFrom(2), Src: netpkt.MACFrom(srcID), EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

// TestRuntimeWiring: the runtime builds the receive path with the ring in
// host memory and the buffers in FLD's BAR, per §5.2.
func TestRuntimeWiring(t *testing.T) {
	inn := newInnova(t)
	rt := inn.rt
	if rt.RQ() == nil || rt.VPort() == nil || rt.FLD() != inn.fld || rt.nic != inn.nic {
		t.Fatal("accessors broken")
	}
	// The first receive descriptor must point into FLD's BAR.
	ringAddr := rt.RQ().Ring
	fldBase := inn.fab.PortOf(inn.fld).Base()
	memBase := inn.fab.PortOf(inn.mem).Base()
	if ringAddr < memBase || ringAddr >= memBase+inn.mem.BARSize() {
		t.Fatalf("receive ring not in host memory: %#x", ringAddr)
	}
	raw := inn.mem.ReadAt(ringAddr-memBase, nic.RecvWQESize)
	w, err := nic.ParseRecvWQE(raw)
	if err != nil {
		t.Fatal(err)
	}
	if w.Addr < fldBase || w.Addr >= fldBase+inn.fld.BARSize() {
		t.Fatalf("receive buffer not in FLD BAR: %#x", w.Addr)
	}
}

// TestAcceleratePipeline: InstallAccelerate detours matching packets to
// the AFU and resumes at the next table, preserving the context tag.
func TestAcceleratePipeline(t *testing.T) {
	inn := newInnova(t)
	inn.rt.CreateEthTxQueue(0, nil)
	ecp := NewEControlPlane(inn.rt)

	// AFU: prepend nothing, just bounce with the tag (simulating an
	// inline transform).
	inn.fld.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) {
		inn.fld.Send(0, data, fld.Metadata{Tag: md.Tag})
	}))

	// Host app port receives post-acceleration traffic at table 50.
	app := inn.drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	inn.nic.ESwitch().AddRule(50, nic.Rule{Action: nic.Action{ToRQ: app.RQ()}})
	var gotTag uint32
	var gotFrame []byte
	app.OnReceive = func(f []byte, md swdriver.RxMeta) { gotFrame, gotTag = bytes.Clone(f), md.FlowTag }

	dport := uint16(7777)
	ecp.InstallAccelerate(AccelerateSpec{
		Table:     0,
		Match:     nic.Match{DstPort: &dport},
		Context:   42,
		NextTable: 50,
	})
	inn.rt.Start()

	// Inject a matching frame at the wire-ingress table via a generator
	// port's hairpin.
	gen := inn.drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	zero := 0
	inn.nic.ESwitch().ClearTable(gen.VPort().EgressTable)
	inn.nic.ESwitch().AddRule(gen.VPort().EgressTable, nic.Rule{Action: nic.Action{ToTable: &zero}})

	frame := udpFrame(1, 1000, 7777, 400)
	gen.Send(frame)
	inn.eng.Run()

	if gotFrame == nil {
		t.Fatalf("accelerated packet never reached the app (counters %v, drops %v)",
			inn.nic.ESwitch().Counters, inn.nic.Stats.Drops)
	}
	if gotTag != 42 {
		t.Fatalf("context tag = %d, want 42", gotTag)
	}
	if !bytes.Equal(gotFrame, frame) {
		t.Fatal("frame altered unexpectedly")
	}
	if inn.nic.ESwitch().Counters["accel-in"] != 1 || inn.nic.ESwitch().Counters["accel-out"] != 1 {
		t.Fatalf("accelerate counters: %v", inn.nic.ESwitch().Counters)
	}
}

// TestAccelerateNonMatchingBypasses: traffic that misses the accelerate
// match flows on without touching the AFU.
func TestAccelerateNonMatchingBypasses(t *testing.T) {
	inn := newInnova(t)
	inn.rt.CreateEthTxQueue(0, nil)
	ecp := NewEControlPlane(inn.rt)
	handled := 0
	inn.fld.SetHandler(fld.HandlerFunc(func([]byte, fld.Metadata) { handled++ }))

	app := inn.drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	inn.nic.ESwitch().AddRule(50, nic.Rule{Action: nic.Action{ToRQ: app.RQ()}})
	got := 0
	app.OnReceive = func([]byte, swdriver.RxMeta) { got++ }

	dport := uint16(7777)
	ecp.InstallAccelerate(AccelerateSpec{Table: 0, Match: nic.Match{DstPort: &dport}, Context: 1, NextTable: 50})
	fifty := 50
	inn.nic.ESwitch().AddRule(0, nic.Rule{Action: nic.Action{ToTable: &fifty}})
	inn.rt.Start()

	gen := inn.drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	zero := 0
	inn.nic.ESwitch().ClearTable(gen.VPort().EgressTable)
	inn.nic.ESwitch().AddRule(gen.VPort().EgressTable, nic.Rule{Action: nic.Action{ToTable: &zero}})
	gen.Send(udpFrame(1, 1000, 8888, 200)) // wrong port: bypass
	inn.eng.Run()

	if handled != 0 {
		t.Fatal("non-matching traffic hit the accelerator")
	}
	if got != 1 {
		t.Fatalf("bypass traffic lost (%d)", got)
	}
}

// TestRServerAcceptAllocatesQueues: each connection gets its own FLD
// queue and the QPN map routes responses.
func TestRServerAcceptAllocatesQueues(t *testing.T) {
	inn := newInnova(t)
	s := NewRServer(inn.rt)
	s.Listen("svc")
	qp1, q1, err := s.Accept("svc")
	if err != nil {
		t.Fatal(err)
	}
	qp2, q2, err := s.Accept("svc")
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatal("connections share an FLD queue")
	}
	if s.QueueFor(qp1.QPN) != q1 || s.QueueFor(qp2.QPN) != q2 {
		t.Fatal("QPN->queue map wrong")
	}
	// The default config has 2 queues: a third connection must fail.
	if _, _, err := s.Accept("svc"); err == nil {
		t.Fatal("over-subscription accepted")
	}
	if _, _, err := s.Accept("nope"); err == nil {
		t.Fatal("unknown service accepted")
	}
}

// TestErrorsSurface: a data-plane error CQE reaches the runtime's error
// log (§5.3 error handling).
func TestErrorsSurface(t *testing.T) {
	inn := newInnova(t)
	sq := inn.rt.CreateEthTxQueue(0, nil)
	inn.rt.Start()
	// Force an error: ring the SQ doorbell for a descriptor FLD never
	// posted; FLD synthesizes an invalid WQE and the NIC completes it
	// with an error.
	cfgNoMMIO := fld.DefaultConfig()
	_ = cfgNoMMIO
	var b [4]byte
	b[3] = 1 // PI = 1
	inn.fab.Write(inn.fab.PortOf(inn.nic).Base()+nic.SQDoorbellOffset(sq.ID), b[:])
	inn.eng.Run()
	if len(inn.rt.Errors) == 0 {
		t.Fatal("data-plane error not surfaced to the control plane")
	}
}

// echoBed wires the accelerate pipeline of TestAcceleratePipeline: frames
// a host generator port sends enter table 0, detour through the AFU
// (which sends each back on transmit queue 0) and land in app at table
// 50. It returns the generator and a counter of frames app received.
func echoBed(inn *innova) (gen *swdriver.EthPort, got *int) {
	inn.rt.CreateEthTxQueue(0, nil)
	dport := uint16(7777)
	NewEControlPlane(inn.rt).InstallAccelerate(AccelerateSpec{
		Table: 0, Match: nic.Match{DstPort: &dport}, Context: 42, NextTable: 50})
	inn.fld.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) {
		inn.fld.Send(0, data, fld.Metadata{Tag: md.Tag})
	}))
	app := inn.drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	inn.nic.ESwitch().AddRule(50, nic.Rule{Action: nic.Action{ToRQ: app.RQ()}})
	n := 0
	app.OnReceive = func([]byte, swdriver.RxMeta) { n++ }
	gen = inn.drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 64, RxEntries: 64})
	zero := 0
	inn.nic.ESwitch().ClearTable(gen.VPort().EgressTable)
	inn.nic.ESwitch().AddRule(gen.VPort().EgressTable, nic.Rule{Action: nic.Action{ToTable: &zero}})
	inn.rt.Start()
	inn.eng.Run()
	return gen, &n
}

// TestQueueFatalErrorKicksTheLadder: a failed descriptor fetch puts the
// send queue in Error and reports it through the error channel; the
// runtime's ladder waits out the reset latency, rewinds the queue over
// the FLD's replay window, and the frame goes out after all.
func TestQueueFatalErrorKicksTheLadder(t *testing.T) {
	cfg := fld.DefaultConfig()
	cfg.WQEByMMIO = false // descriptors are fetched, so a fetch can fail
	inn := newInnovaWith(cfg)
	gen, got := echoBed(inn)
	failed := sim.Time(-1)
	inn.nic.SetFaults(&nic.FaultHooks{FailWQEFetch: func(sq *nic.SQ) bool {
		if sq == inn.rt.txqs[0].sq && failed < 0 {
			failed = inn.eng.Now()
			return true
		}
		return false
	}})
	gen.Send(udpFrame(1, 1000, 7777, 200))
	inn.eng.Run()

	if failed < 0 || len(inn.rt.Errors) != 1 {
		t.Fatalf("fetch failed: %v, errors reported: %v", failed >= 0, inn.rt.Errors)
	}
	if *got != 1 {
		t.Fatalf("app received %d frames, want the replayed 1", *got)
	}
	if !inn.rt.Healthy() || inn.rt.ladder.Active() || inn.nic.Stats.QueueRecoveries != 1 {
		t.Fatalf("healthy=%v active=%v recoveries=%d; want a closed episode and one reset",
			inn.rt.Healthy(), inn.rt.ladder.Active(), inn.nic.Stats.QueueRecoveries)
	}
}

// TestCrashWithQueuesReadyResyncs: an FLD crash that trips no queue into
// Error still costs receive capacity — frames arriving while the core is
// down consume buffers whose completions nobody sees. The moved crash
// count alone opens the ladder, which resyncs the ring to full capacity,
// and the core serves traffic again.
func TestCrashWithQueuesReadyResyncs(t *testing.T) {
	inn := newInnova(t)
	gen, got := echoBed(inn)
	full := inn.rt.RQ().Posted()

	inn.fld.Crash()
	for i := 0; i < 100; i++ {
		gen.Send(udpFrame(1, 1000, 7777, 1000))
	}
	inn.eng.Run()
	inn.fld.Restart()
	if inn.rt.RQ().Posted() >= full || !inn.rt.QueuesReady() {
		t.Fatalf("posted %d of %d, queues ready %v: want capacity lost with every queue Ready",
			inn.rt.RQ().Posted(), full, inn.rt.QueuesReady())
	}
	if inn.rt.Healthy() {
		t.Fatal("a crash of the core left the runtime healthy")
	}

	inn.rt.Kick()
	inn.eng.Run()
	if posted := inn.rt.RQ().Posted(); posted != full || !inn.rt.Healthy() || inn.rt.ladder.Active() {
		t.Fatalf("after recovery: posted %d of %d, healthy %v, active %v", posted, full, inn.rt.Healthy(), inn.rt.ladder.Active())
	}
	*got = 0
	for i := 0; i < 10; i++ {
		gen.Send(udpFrame(1, 1000, 7777, 200))
	}
	inn.eng.Run()
	if *got != 10 {
		t.Fatalf("app received %d of 10 frames after recovery", *got)
	}
}

// TestCrashBeforeStartArmsNothing: recovering from a crash restores the
// receive capacity the core had, and a core nobody started had none —
// the resync must not arm a ring Start never posted.
func TestCrashBeforeStartArmsNothing(t *testing.T) {
	inn := newInnova(t)
	inn.fld.Crash()
	inn.fld.Restart()
	inn.rt.Kick()
	inn.eng.Run()
	if posted := inn.rt.RQ().Posted(); posted != 0 || !inn.rt.Healthy() {
		t.Fatalf("posted %d buffers, healthy %v; want 0 and a closed episode", posted, inn.rt.Healthy())
	}
}

// TestDestroyedFunctionNeedsNoRecovery: once its virtual function is
// destroyed, a runtime's failed queues are nobody's to reset, so a kick
// opens nothing.
func TestDestroyedFunctionNeedsNoRecovery(t *testing.T) {
	inn := newInnova(t)
	vf := inn.nic.CreateVF(nic.VFConfig{Quota: nic.VFQuota{SQs: 1, RQs: 1, CQs: 2}})
	f := fld.New(inn.eng, fld.DefaultConfig())
	f.SetPCIeName("fld1")
	f.AttachPCIe(inn.fab, pcie.Gen3x8())
	rt, err := NewRuntimeVF(inn.eng, inn.fab, inn.mem, inn.nic, f, vf)
	if err != nil {
		t.Fatal(err)
	}
	inn.nic.DestroyVF(vf)
	if rt.QueuesReady() {
		t.Fatal("destroying the function left its queues Ready")
	}
	rt.Kick()
	if rt.ladder.Active() || inn.eng.Pending() != 0 {
		t.Fatal("a kick on a destroyed function's runtime opened an episode")
	}
}

// TestTenantRuleValidation: the §5.4 trust boundary — tenants cannot
// spoof context IDs or escape their tables.
func TestTenantRuleValidation(t *testing.T) {
	inn := newInnova(t)
	inn.rt.CreateEthTxQueue(0, nil)
	ecp := NewEControlPlane(inn.rt)
	const tenantCtx = 5
	owned := map[int]bool{70: true, 71: true}
	tag := func(v uint32) *uint32 { return &v }
	tbl := func(v int) *int { return &v }

	// Legitimate: steer into the accelerator with own tag.
	ok := nic.Rule{Action: nic.Action{SetFlowTag: tag(tenantCtx), ToRQ: inn.rt.RQ()}}
	if err := ecp.InstallTenantRule(tenantCtx, owned, 70, ok); err != nil {
		t.Fatalf("legitimate rule rejected: %v", err)
	}
	// Legitimate: jump within owned tables.
	if err := ecp.InstallTenantRule(tenantCtx, owned, 70,
		nic.Rule{Action: nic.Action{ToTable: tbl(71)}}); err != nil {
		t.Fatalf("intra-tenant jump rejected: %v", err)
	}

	bad := []struct {
		name  string
		table int
		r     nic.Rule
		why   string // the refusal names the rule that was broken
	}{
		{"foreign tag", 70, nic.Rule{Action: nic.Action{SetFlowTag: tag(9), ToRQ: inn.rt.RQ()}}, "foreign context tag"},
		{"foreign table", 0, nic.Rule{Action: nic.Action{Drop: true}}, "table not owned by tenant"},
		{"jump out", 70, nic.Rule{Action: nic.Action{ToTable: tbl(0)}}, "jump to foreign table"},
		{"vport", 70, nic.Rule{Action: nic.Action{ToVPort: tbl(1)}}, "vport forwarding is hypervisor-only"},
		{"untagged accel steering", 70, nic.Rule{Action: nic.Action{ToRQ: inn.rt.RQ()}}, "must tag the tenant context"},
	}
	for _, c := range bad {
		err := ecp.InstallTenantRule(tenantCtx, owned, c.table, c.r)
		if err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%s: got %v, want a refusal saying %q", c.name, err, c.why)
		}
	}
}
