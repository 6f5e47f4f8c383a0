package ethswitch

import (
	"fmt"

	"flexdriver/internal/telemetry"
)

// SetTelemetry attaches a telemetry scope: the switch's Stats published
// as forwarding counters, FDB size, and per-port rx/tx/tail-drop
// counters plus output-queue depth and utilization — for ports that
// already exist and ports connected later.
func (s *Switch) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	s.tlm = sc
	st := &s.Stats
	sc.CounterVar("forwarded", &st.Forwarded)
	sc.CounterVar("floods", &st.Floods)
	sc.CounterVar("filtered", &st.Filtered)
	sc.CounterVar("reboots", &st.Reboots)
	sc.CounterVar("reboot_drops", &st.RebootDrops)
	sc.Func("fdb/size", func() float64 { return float64(len(s.fdb)) })
	for _, p := range s.ports {
		p.instrument(sc)
	}
}

// instrument publishes the port's Counters and its link's fault-plane
// losses (dir 0 is NIC-to-switch, "up").
func (p *Port) instrument(sc *telemetry.Scope) {
	ps := sc.Scope(fmt.Sprintf("port%d", p.ID))
	c := &p.Counters
	ps.CounterVar("rx/frames", &c.RxFrames)
	ps.CounterVar("rx/bytes", &c.RxBytes)
	ps.CounterVar("tx/frames", &c.TxFrames)
	ps.CounterVar("tx/bytes", &c.TxBytes)
	ps.CounterVar("tail_drops", &c.TailDrops)
	ps.CounterVar("injected_loss/up", &p.link.Lost[0])
	ps.CounterVar("injected_loss/down", &p.link.Lost[1])
	p.depth = ps.Gauge("queue/depth")
	ps.Func("out/util", p.out.Utilization)
	ps.Func("in/util", p.in.Utilization)
}
