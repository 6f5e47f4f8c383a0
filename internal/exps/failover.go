package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/rig"
	"flexdriver/internal/swdriver"
)

// Failover is the failure-domain experiment: two Innova echo servers
// behind a ToR switch serve four clients; mid-traffic one server
// crash–restarts as a whole node (NIC, FLD, host driver together). The
// clients run a consecutive-loss failover policy — no reply for a
// threshold redirects traffic to the survivor, probes then watch for
// the dead server's return — and the experiment asserts the recovery
// SLOs:
//
//   - every client of the crashed server detects the outage and fails
//     over within the detection SLO;
//   - redistributed traffic is actually served by the survivor while
//     the primary is down;
//   - the restarted node heals (driver-side queue recovery, no silent
//     self-repair) and every client rejoins it within the rejoin SLO;
//   - clients of the survivor see strictly zero loss — blast radius is
//     one failure domain;
//   - every queue ends Ready and the engine quiesces.
//
// No fault plan runs here: the crash is a single deterministic Control
// action, so the measured windows are attributable to the ladder and
// the policy, not to storm luck.
func Failover(window flexdriver.Duration) *Result {
	r, _ := failoverRun(window)
	return r
}

func failoverRun(window flexdriver.Duration) (*Result, flexdriver.Snapshot) {
	r := &Result{ID: "failover",
		Title: "Node crash failover: 4 clients vs 2 Innova echo servers, one crash-restarts"}
	r.Columns = []string{"client", "primary", "failover us", "rejoin us", "replies", "loss"}

	const (
		size       = 256
		warmup     = 50 * flexdriver.Microsecond
		lossThresh = 15 * flexdriver.Microsecond
		probeEvery = 20 * flexdriver.Microsecond
	)
	stopSend := restartAt + window
	deadline := stopSend + 60*flexdriver.Microsecond

	cl := rig.New(flexdriver.WithDriver(genDriverParams()))

	servers := make([]*rig.Server, 2)
	for i := range servers {
		srv := cl.AddServer(fmt.Sprintf("server%c", 'A'+i), 1, func(f *flexdriver.FLD) { rig.InstallEcho(f) })
		srv.Steer(flexdriver.Rule{})
		servers[i] = srv
	}
	crashed, survivor := servers[0], servers[1]

	// Clients 0,2 home on serverA (the one that crashes), 1,3 on serverB.
	clients := make([]*failoverClient, 0, 4)
	for ci := 0; ci < 4; ci++ {
		h := cl.AddHost(fmt.Sprintf("client%d", ci))
		c := &failoverClient{name: h.Name(), eng: h.Engine(),
			port:    h.Drv.NewClientPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512}),
			primary: servers[ci%2], target: servers[ci%2], lastRx: -1}
		myNIC := h.NIC
		c.port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			if len(fr) < 34 {
				return
			}
			c.recv++
			c.lastRx = c.eng.Now()
			fromPrimary := true
			for i := 0; i < 4; i++ { // IPv4 source at Eth(14)+12
				if fr[26+i] != c.primary.NIC.IP[i] {
					fromPrimary = false
					break
				}
			}
			if fromPrimary {
				if c.failedAt > 0 && c.rejoinAt == 0 {
					// The probe came back: the primary is serving again.
					c.rejoinAt = c.eng.Now()
					c.target = c.primary
				}
			} else if c.eng.Now() >= crashAt && c.eng.Now() < restartAt {
				c.outageRx++
			}
		}

		// Open-loop paced sender with the failover policy folded into the
		// tick: detection (no reply for lossThresh while homed on the
		// primary), redirection, and periodic probing of the dead server.
		// 4 Gbit/s per client keeps the post-failover survivor (3 clients
		// plus echo replies on one 25 GbE port) well under the wire bound:
		// the experiment measures recovery, not congestion.
		interval := flexdriver.Duration(size*8) * flexdriver.Second / flexdriver.Duration(4e9)
		rig.OpenLoop(c.eng, interval, stopSend, 1, rig.Every(interval), func() {
			now := c.eng.Now()
			if c.target == c.primary && c.failedAt == 0 && c.lastRx >= 0 && now-c.lastRx > lossThresh {
				c.failedAt = now
				c.target = survivor
			}
			if c.target != c.primary && now-c.lastProb >= probeEvery {
				c.lastProb = now
				c.port.Send(rig.UDPFrame(myNIC, c.primary.NIC, 4000+uint16(ci), 7777, size))
			}
			c.sent++
			c.port.Send(rig.UDPFrame(myNIC, c.target.NIC, 4000+uint16(ci), 7777, size))
		})
		clients = append(clients, c)
	}

	// Pin every MAC so a dead server's traffic is dropped at its own port
	// rather than delivered to a flood copy.
	cl.PinFDB()

	// The crash and restart are cluster-wide barrier actions: the whole
	// failure domain goes down and comes back at one instant.
	cl.Control(crashAt, crashed.Crash)
	cl.Control(restartAt, crashed.Restart)

	// Watchdog sweep: server runtimes scan for silently-errored queues
	// (a crashed device cannot DMA the CQE that would announce them).
	sweep := func() {
		for _, srv := range servers {
			srv.Kick()
		}
	}
	cl.Supervise(warmup, 20*flexdriver.Microsecond, deadline, sweep)
	cl.Quiesce(deadline, sweep)

	failoverReport(r, clients, crashed, survivor, cl.Pending())
	return r, cl.Telemetry().Snapshot()
}

// The failure-domain timeline and its SLOs: detection is the loss
// threshold plus in-flight slack; rejoin covers the restart, one watchdog
// sweep (20us), the driver reset latency and one probe round trip.
const (
	crashAt     = 100 * flexdriver.Microsecond
	restartAt   = crashAt + 80*flexdriver.Microsecond
	failoverSLO = 30 * flexdriver.Microsecond
	rejoinSLO   = 100 * flexdriver.Microsecond
)

// failoverClient is one client's policy state and tallies.
type failoverClient struct {
	name     string
	eng      *flexdriver.Engine
	port     *swdriver.EthPort
	primary  *rig.Server
	target   *rig.Server
	sent     int64
	recv     int64
	lastRx   flexdriver.Time // most recent reply (any source); -1 until first
	lastProb flexdriver.Time
	failedAt flexdriver.Time // failover decision; 0 = never
	rejoinAt flexdriver.Time // first primary reply after failover; 0 = never
	outageRx int64           // survivor replies received while primary was down
}

// failoverReport tabulates the clients and judges the recovery SLOs.
func failoverReport(r *Result, clients []*failoverClient, crashed, survivor *rig.Server, pending int) {
	allFailed, allRejoined, redistributed := true, true, true
	maxFailover, maxRejoin := flexdriver.Duration(0), flexdriver.Duration(0)
	var survivorLoss int64
	for _, c := range clients {
		fo, rj := "-", "-"
		if c.primary == crashed {
			if c.failedAt == 0 {
				allFailed = false
			} else {
				if d := c.failedAt - crashAt; d > maxFailover {
					maxFailover = d
				}
				fo = fmt.Sprintf("%.1f", (c.failedAt - crashAt).Microseconds())
			}
			if c.rejoinAt == 0 {
				allRejoined = false
			} else {
				if d := c.rejoinAt - restartAt; d > maxRejoin {
					maxRejoin = d
				}
				rj = fmt.Sprintf("%.1f", (c.rejoinAt - restartAt).Microseconds())
			}
			if c.outageRx == 0 {
				redistributed = false
			}
		} else {
			survivorLoss += c.sent - c.recv
		}
		r.AddRow(c.name, srvName(c.primary, crashed), fo, rj, d64(c.recv), d64(c.sent-c.recv))
	}

	r.Check("crashed server's clients all detected the outage", 1, b2f(allFailed), "",
		allFailed, "consecutive-loss threshold tripped")
	r.Check("failover within SLO", failoverSLO.Microseconds(), maxFailover.Microseconds(), "us",
		allFailed && maxFailover <= failoverSLO, "crash -> redirect decision, worst client")
	r.Check("traffic redistributed to the survivor", 1, b2f(redistributed), "",
		redistributed, "every failed-over client was served during the outage")
	r.Check("node rejoined within SLO", rejoinSLO.Microseconds(), maxRejoin.Microseconds(), "us",
		allRejoined && maxRejoin <= rejoinSLO, "restart -> first echo through the healed node")
	r.Check("survivor's clients saw zero loss", 0, float64(survivorLoss), "frames",
		survivorLoss == 0, "blast radius is one failure domain")
	ready := crashed.RT.QueuesReady() && survivor.RT.QueuesReady()
	r.Check("server queues recovered to Ready", 1, b2f(ready), "", ready,
		"no silent self-heal: the watchdog's resets did this")
	r.Check("sim engine quiesced", 0, float64(pending), "events", pending == 0, "")
}

func srvName(s, crashed *rig.Server) string {
	if s == crashed {
		return "A (crashes)"
	}
	return "B"
}
