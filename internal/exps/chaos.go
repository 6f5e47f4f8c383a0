package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/nic"
	"flexdriver/internal/rig"
	"flexdriver/internal/swdriver"
)

// Chaos runs the FLD-E echo across a switched 2-node cluster under a
// deterministic fault storm and asserts the recovery invariants:
//
//   - no app-level loss beyond what the plan injected (and zero loss
//     when nothing was injected);
//   - no app-level duplication beyond injected wire duplicates;
//   - the PCIe telemetry byte counters still reconcile byte-exactly
//     against both fabrics' independent accounting — fault injection
//     never unbalances the wire-byte bookkeeping;
//   - every queue is back in the Ready state once the storm ends, with
//     the driver's supervision ladder closing every crash episode it
//     opened (bounded MTTR, nothing abandoned);
//   - the simulation engine fully quiesces (no wedged retry loops).
//
// seed drives the plan's random stream: a failing (seed, spec) pair
// replays the identical storm. spec is a fault specification for
// faults.ParseSpec; empty means the "heavy" preset ("crash" adds the
// device/node crash–restart classes). window is the storm's duration.
func Chaos(seed int64, spec string, window flexdriver.Duration) *Result {
	r, _ := chaosRun(seed, spec, window)
	return r
}

// ChaosTelemetryHash runs the storm and returns only the SHA-256 of the
// final telemetry snapshot — the determinism tests' replay pin.
func ChaosTelemetryHash(seed int64, spec string, window flexdriver.Duration) string {
	_, h := chaosRun(seed, spec, window)
	return h
}

func chaosRun(seed int64, spec string, window flexdriver.Duration) (*Result, string) {
	r := &Result{ID: "chaos",
		Title: fmt.Sprintf("FLD-E cluster echo under fault injection (seed=%d, faults=%q)", seed, orHeavy(spec))}
	r.Columns = []string{"metric", "value", "", "", "", ""}

	cfg, err := flexdriver.ParseFaultSpec(orHeavy(spec))
	if err != nil {
		r.Check("fault spec parses", 1, 0, "", false, err.Error())
		return r, ""
	}

	const (
		warmup = 150 * flexdriver.Microsecond
		drain  = 250 * flexdriver.Microsecond
		size   = 256
	)
	// Probabilistic faults only fire inside [warmup, warmup+window); the
	// warmup and drain phases are clean so lost doorbells are superseded
	// and every recovery completes before the invariants are checked.
	cfg.Start, cfg.Stop = warmup, warmup+window

	plan := flexdriver.NewFaultPlan(seed, cfg)
	cl := rig.New(flexdriver.WithDriver(genDriverParams()), flexdriver.WithFaults(plan))

	// Server: one Innova whose FLD runs the header-swapping echo (the
	// switch's source filter would eat verbatim hairpin replies).
	srv := cl.AddServer("server", 1, func(f *flexdriver.FLD) { rig.InstallEcho(f) })
	srv.Steer(flexdriver.Rule{})

	// Client: a software port steered on its own IP, watched by the
	// supervision ladder (crash classes leave its rings errored with the
	// announcing CQEs unDMAable — only the ladder can notice). Frames are
	// sequence-stamped, so loss and duplication are measured per frame,
	// not from aggregate counts.
	cli := cl.AddClient("client", seqOff)
	cl.AddSupervisor(cli.Host, seed)
	cli.Flows = [][]byte{rig.UDPFrame(cli.Host.NIC, srv.NIC, 4000, 7777, size)}
	cli.Port.OnReceive = func(fr []byte, _ swdriver.RxMeta) { cli.Deliver(fr) }

	// ~10 Gbps offered: safely below the echo path's capacity, so a
	// fault-free run is lossless.
	interval := flexdriver.Duration(float64(size*8) / 10e9 * float64(flexdriver.Second))
	deadline := warmup + window + drain
	rig.OpenLoop(cli.Host.Engine(), 0, deadline, 1, rig.Every(interval), cli.Send)

	// The watchdog kicks the client's ladder and the server runtime's
	// queue scans, so Error states whose announcing CQE was lost (or
	// never DMA-able: the device was crashed) still get noticed.
	cl.Supervise(warmup, 20*flexdriver.Microsecond, deadline, srv.Recover)
	cl.Quiesce(deadline, srv.Recover)

	snap := cl.Telemetry().Snapshot()
	chaosReport(r, cfg, plan.Injected, cl, srv, cli, snap)
	return r, snap.Hash()
}

// chaosReport tabulates the storm and judges the recovery invariants.
func chaosReport(r *Result, cfg flexdriver.FaultsConfig, inj flexdriver.FaultCounts,
	cl *rig.Rig, srv *rig.Server, cli *rig.Client, snap flexdriver.Snapshot) {
	sent := cli.Sent()
	lost, dups := cli.Tally()

	r.AddRow("frames sent", d64(sent), "", "", "", "")
	r.AddRow("frames lost", d64(lost), "", "", "", "")
	r.AddRow("duplicate receives", d64(dups), "", "", "", "")
	r.AddRow("faults injected (total)", d64(inj.Total()), "", "", "", "")
	r.AddRow("  pcie drop/corrupt/flap", fmt.Sprintf("%d/%d/%d",
		inj.PCIeDrops, inj.PCIeCorrupts, inj.LinkFlapTLPs), "", "", "", "")
	r.AddRow("  nic db/wqe/cqe", fmt.Sprintf("%d/%d/%d",
		inj.DoorbellLosses, inj.WQEFetchFails, inj.CQEErrors), "", "", "", "")
	r.AddRow("  accel stalls", d64(inj.AccelStalls), "", "", "", "")
	r.AddRow("  wire loss/dup/delay", fmt.Sprintf("%d/%d/%d",
		inj.WireLosses, inj.WireDups, inj.WireDelays), "", "", "", "")
	crashes := inj.FLDResets + inj.NICFLRs + inj.NodeCrashes + inj.DrvCrashes + inj.SwReboots
	r.AddRow("  crash fld/flr/node/drv/sw", fmt.Sprintf("%d/%d/%d/%d/%d",
		inj.FLDResets, inj.NICFLRs, inj.NodeCrashes, inj.DrvCrashes, inj.SwReboots), "", "", "", "")

	// Loss bound: a queue-fatal fault flushes at most one ring (512
	// entries) of in-flight frames, and a crash window additionally eats
	// the frames offered while the component is down; 512 per injected
	// fault covers both generously — the teeth are in "zero faults =>
	// zero loss".
	maxLost := 512 * inj.Total()
	r.Check("loss bounded by injected faults", float64(maxLost), float64(lost), "frames",
		lost <= maxLost && (inj.Total() > 0 || lost == 0), "<= 512 per injected fault")
	if inj.Total() > 0 {
		r.Check("storm actually injected faults", 1, b2f(inj.Total() > 0), "", true, "")
	}
	// Duplication bound: each injected wire dup adds at most one copy,
	// and each device crash–restart may replay its unacknowledged send
	// window (at most one ring) — recovery is deliberately at-least-once:
	// a reset replays every descriptor without a completion rather than
	// guess which ones made it to the wire.
	maxDups := inj.WireDups + 512*(inj.NICFLRs+inj.NodeCrashes+inj.FLDResets)
	r.Check("no duplication beyond injected", float64(maxDups), float64(dups), "frames",
		dups <= maxDups, "wire dups + crash-replay of unacked windows")
	r.Check("traffic survived the storm", 1, b2f(sent > 0 && lost < sent), "",
		sent > 0 && lost < sent, "")

	// Byte-exact PCIe reconciliation on both fabrics: injected drops
	// charge no bytes anywhere, poisoned TLPs charge bytes on every link
	// they traverse, so telemetry and port accounting must still agree.
	cm, _, _ := reconcilePCIe(r, snap, "client", cli.Host.Fab)
	sm, _, _ := reconcilePCIe(r, snap, "server", srv.Fab)
	r.Check("PCIe byte counters reconcile under faults", 0, float64(cm+sm), "mismatches",
		cm+sm == 0, "telemetry vs Port.{Up,Down}Bytes, byte-exact")

	// Recovery: both NICs' queues are Ready again. When no crash class
	// ran, every queue error is answered one-for-one by a driver reset;
	// crash windows break that pairing by design (a crash errors every
	// ring silently, an FLR resets rings that never errored), so there
	// the Ready check and the supervisor's episode accounting carry the
	// assertion instead.
	srvReady := srv.RT.QueuesReady()
	cliReady := cli.Port.SQ().State() == nic.QueueReady && cli.Port.RQ().State() == nic.QueueReady
	r.Check("all queues recovered to Ready", 1, b2f(srvReady && cliReady), "",
		srvReady && cliReady, "server runtime + client port")
	if crashes == 0 {
		cliN, srvN := cli.Host.NIC.Stats, srv.NIC.Stats
		errsAnswered := cliN.QueueErrors <= cliN.QueueRecoveries && srvN.QueueErrors <= srvN.QueueRecoveries
		r.Check("every queue error answered by a reset",
			float64(cliN.QueueErrors+srvN.QueueErrors),
			float64(cliN.QueueRecoveries+srvN.QueueRecoveries), "resets",
			errsAnswered, "")
	}

	// Supervision ladder: every opened episode closed (none abandoned),
	// and the worst observed MTTR is bounded by the storm's longest
	// downtime window plus detection and retry latency.
	episodes := snap.Counters["client/supervisor/episodes"]
	abandoned := snap.Counters["client/supervisor/abandoned"]
	r.AddRow("supervisor episodes (mttr max us)", fmt.Sprintf("%d (%.1f)",
		episodes, float64(snap.Gauges["client/supervisor/mttr_max"].High)/1e6), "", "", "", "")
	r.Check("no recovery episode abandoned", 0, float64(abandoned), "episodes",
		abandoned == 0, "")
	if episodes > 0 {
		bound := 3*rig.MaxCrashFor(cfg) + 100*flexdriver.Microsecond
		worst := flexdriver.Duration(snap.Gauges["client/supervisor/mttr_max"].High)
		r.Check("MTTR bounded", float64(bound)/1e6, float64(worst)/1e6, "us",
			worst <= bound, "detection -> healthy, worst episode")
	}

	// The engine must fully quiesce: no wedged retransmit or recovery
	// loop keeps scheduling events once traffic stops.
	r.Check("sim engine quiesced", 0, float64(cl.Pending()), "events",
		cl.Pending() == 0, "no wedged retry loops")
}

func orHeavy(spec string) string {
	if spec == "" {
		return "heavy"
	}
	return spec
}
