package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/rig"
	"flexdriver/internal/swdriver"
)

// Tenancy is the multi-tenant control-plane experiment: one Innova
// server partitioned into per-tenant VFs and FLD cores by a declarative
// reconciler, echoing traffic for one client per tenant while the spec
// changes underneath it and FLD cores crash-restart on a fault plan.
//
// Timeline: spec v1 gives tenant A a 3 Gbit/s-shaped slice and tenant B
// an unshaped one. Mid-window, spec v2 arrives: tenant C is added, B's
// queue quota shrinks (a structural change that must drain → rebuild →
// undrain B live), and A's rate cap tightens to 2 Gbit/s (a bandwidth-
// only change applied to the live VF). Checks:
//
//   - zero cross-tenant frame leakage: every reply a client receives
//     carries its own tenant's tag (the eSwitch domain invariant,
//     end-to-end);
//   - per-tenant bandwidth within shaper bounds in both phases: A's
//     goodput respects the 3 Gbit/s cap, then the tightened 2 Gbit/s
//     cap after the live re-slice;
//   - the reconciler converges on v2 with bounded drain time, read from
//     the control plane's own telemetry;
//   - B serves traffic again after its rebuild and C is served at all —
//     live reconfiguration is not an outage for the reshaped tenant and
//     is an onboarding path for the new one.
func Tenancy(seed int64, window flexdriver.Duration) *Result {
	r := &Result{ID: "tenancy",
		Title: fmt.Sprintf("Multi-tenant live reconcile under traffic + FLD crash faults (seed=%d)", seed)}
	r.Columns = []string{"metric", "value", "", "", "", ""}

	pt := runTenancyPoint(seed, window)

	r.AddRow("tenant A rx Gb/s (phase1 / phase2)",
		fmt.Sprintf("%.2f / %.2f", pt.aGbps1, pt.aGbps2), "", "", "", "")
	r.AddRow("tenant B rx frames (phase1 / phase2)",
		fmt.Sprintf("%d / %d", pt.bRx1, pt.bRx2), "", "", "", "")
	r.AddRow("tenant C rx frames (phase2)", d64(pt.cRx), "", "", "", "")
	r.AddRow("cross-tenant leaks", d64(pt.leaks), "", "", "", "")
	r.AddRow("cross-domain drops at the eSwitch", d64(pt.crossDomainDrops), "", "", "", "")
	r.AddRow("drain episodes (max us)", fmt.Sprintf("%d (%.1f)", pt.drains, pt.drainMaxUs), "", "", "", "")
	r.AddRow("FLD crash-restarts injected", d64(pt.fldResets), "", "", "", "")
	r.AddRow("telemetry hash", pt.snap.Hash()[:16]+"...", "", "", "", "")

	r.Check("zero cross-tenant frame leakage", 0, float64(pt.leaks), "frames",
		pt.leaks == 0, "every reply tagged with the receiving client's tenant")
	r.Check("tenant A within its 3 Gb/s cap (phase 1)", 3*1.1, pt.aGbps1, "Gbit/s",
		pt.aGbps1 <= 3*1.1 && pt.aGbps1 > 1, "5 Gb/s offered, shaper-bound")
	r.Check("tenant A within its tightened 2 Gb/s cap (phase 2)", 2*1.1, pt.aGbps2, "Gbit/s",
		pt.aGbps2 <= 2*1.1 && pt.aGbps2 > 0.5, "live SetRate on the same VF")
	r.Check("tenant B served after its rebuild", 1, b2f(pt.bRx2 > 0), "",
		pt.bRx2 > 0, "drain -> rebuild -> undrain was not an outage")
	r.Check("tenant C onboarded mid-run", 1, b2f(pt.cRx > 0), "",
		pt.cRx > 0, "added by spec v2 under traffic")
	r.Check("reconciler converged on v2", 1, b2f(pt.converged && pt.version == 2), "",
		pt.converged && pt.version == 2, "observed state matches the spec at the end")
	r.Check("drain time bounded", 150, pt.drainMaxUs, "us",
		pt.drains >= 1 && pt.drainMaxUs <= 150, "ctrlplane drain_max gauge; A's 3 Gb/s-shaped backlog dominates")
	r.Check("no convergence episode abandoned", 0, float64(pt.abandoned), "episodes",
		pt.abandoned == 0, "")
	r.Check("crash faults actually fired", 1, b2f(pt.fldResets > 0), "",
		pt.fldResets > 0, "the reconcile ran through a storm, not a calm")
	r.Check("all tenant queues recovered to Ready", 1, b2f(pt.queuesReady), "",
		pt.queuesReady, "")
	r.Check("sim engine quiesced", 0, float64(pt.pending), "events",
		pt.pending == 0, "")
	return r
}

// tenancyPoint is one run's measurements.
type tenancyPoint struct {
	aGbps1, aGbps2   float64
	bRx1, bRx2       int64
	cRx              int64
	leaks            int64
	crossDomainDrops int64
	drains           int64
	drainMaxUs       float64
	abandoned        int64
	fldResets        int64
	converged        bool
	version          int64
	queuesReady      bool
	pending          int
	snap             flexdriver.Snapshot // the final telemetry snapshot
}

// tenancySpecV1/V2 are the experiment's desired states. Quotas cover the
// runtime's fixed footprint (2 CQs + the shared RQ per core) plus one
// echo tx queue; v2 shrinks B to the exact minimum.
func tenancySpecV1() flexdriver.TenancySpec {
	return flexdriver.TenancySpec{Version: 1, Tenants: []flexdriver.TenantSpec{
		{Name: "A", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 2, RateGbps: 3},
		{Name: "B", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1},
	}}
}

func tenancySpecV2() flexdriver.TenancySpec {
	return flexdriver.TenancySpec{Version: 2, Tenants: []flexdriver.TenantSpec{
		{Name: "A", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 2, RateGbps: 2},
		{Name: "B", VFs: 1, Cores: 1, SQs: 1, RQs: 1, CQs: 2, Weight: 1},
		{Name: "C", VFs: 1, Cores: 1, SQs: 2, RQs: 1, CQs: 2, Weight: 1},
	}}
}

func runTenancyPoint(seed int64, window flexdriver.Duration) tenancyPoint {
	const (
		size   = 512
		tagOff = seqOff + 8 // tenant tag rides after the 8-byte sequence
		warmup = 50 * flexdriver.Microsecond
		settle = 20 * flexdriver.Microsecond
	)
	reconfigAt := warmup + window/2
	stopSend := warmup + window
	deadline := stopSend + 100*flexdriver.Microsecond
	tenants := []string{"A", "B", "C"}
	ports := []uint16{7801, 7802, 7803}

	// Crash fault plan: FLD cores (the PF's and every tenant's) crash-
	// restart on a deterministic schedule while traffic and the v2
	// reconcile are in flight.
	cfg, err := flexdriver.ParseFaultSpec("fld.reset.every=180us,fld.reset.for=4us")
	if err != nil {
		panic(err)
	}
	cfg.Start, cfg.Stop = warmup, stopSend
	plan := flexdriver.NewFaultPlan(seed, cfg)

	cl := rig.New(flexdriver.WithDriver(genDriverParams()), flexdriver.WithFaults(plan))
	srv := cl.ManageTenants("server", seed, tenants, ports,
		func(_ string, f *flexdriver.FLD) { rig.InstallEcho(f) })
	if err := cl.Apply(tenancySpecV1()); err != nil {
		panic(err)
	}

	// One client per tenant; C idles until its tenant exists. Replies are
	// verified against the client's own tenant tag — a mismatch is a
	// cross-tenant leak, the thing the eSwitch domains must make
	// impossible no matter what the steering tables say mid-reconfigure.
	type tclient struct {
		*rig.Client
		// Phase accounting: receives before reconfigAt vs after the
		// settle band; the band itself counts toward neither bound.
		rx1B, rx2B int64
		rx1, rx2   int64
		leaks      int64
	}
	clients := make([]*tclient, len(tenants))
	for i := range tenants {
		c := &tclient{Client: cl.AddClient("client"+tenants[i], seqOff)}
		eng := c.Host.Engine()
		tag := byte('A' + i)
		c.Port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			if len(fr) < tagOff+1 {
				return
			}
			if fr[tagOff] != tag {
				c.leaks++
				return
			}
			switch now := eng.Now(); {
			case now >= warmup && now < reconfigAt:
				c.rx1++
				c.rx1B += int64(len(fr))
			case now >= reconfigAt+settle && now < stopSend:
				c.rx2++
				c.rx2B += int64(len(fr))
			}
		}
		clients[i] = c

		// 5 Gbit/s offered per tenant: above A's cap (the shaper must
		// bind), comfortably inside each core's echo capacity.
		base := rig.UDPFrame(c.Host.NIC, srv.NIC, 4000+uint16(i), ports[i], size)
		base[tagOff] = tag
		c.Flows = [][]byte{base}
		startAt := warmup
		if tenants[i] == "C" {
			startAt = reconfigAt
		}
		rig.OpenLoop(eng, startAt, stopSend, 1, rig.Every(period(float64(size), 5)), c.Send)
	}

	// Pin every MAC so nothing floods: a flooded reply reaching the wrong
	// client would read as a leak when it is only switch behavior.
	cl.PinFDB()

	// Spec v2 lands mid-traffic as a cluster-wide barrier action.
	cl.Control(reconfigAt, func() {
		if err := cl.Apply(tenancySpecV2()); err != nil {
			panic(err)
		}
	})
	cl.Supervise(warmup, 20*flexdriver.Microsecond, deadline, srv.Kick)
	cl.Quiesce(deadline, srv.Kick)

	pt := tenancyPoint{
		aGbps1:    gbps(clients[0].rx1B, reconfigAt-warmup),
		aGbps2:    gbps(clients[0].rx2B, stopSend-reconfigAt-settle),
		bRx1:      clients[1].rx1,
		bRx2:      clients[1].rx2,
		cRx:       clients[2].rx2,
		fldResets: plan.Injected.FLDResets,
		converged: srv.TM.Reconciler().Converged(),
		version:   int64(srv.TM.Reconciler().Version()),
		pending:   cl.Pending(),
	}
	for _, c := range clients {
		pt.leaks += c.leaks
	}
	pt.queuesReady = true
	srv.EachRuntime(func(_ string, _ int, rt *flexdriver.Runtime) {
		pt.queuesReady = pt.queuesReady && rt.QueuesReady()
	})
	snap := cl.Telemetry().Snapshot()
	pt.crossDomainDrops = snap.Get("server/nic/drops/cross-domain")
	pt.drains = snap.Get("server/ctrlplane/drains")
	pt.drainMaxUs = float64(snap.Gauges["server/ctrlplane/drain_max"].High) / 1e6
	pt.abandoned = snap.Get("server/ctrlplane/abandoned")
	pt.snap = snap
	return pt
}
