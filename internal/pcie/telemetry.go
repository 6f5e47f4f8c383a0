package pcie

import (
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// portTelemetry holds one port's per-link counters, indexed by
// direction and TLP type so hot-path updates are array loads plus an
// atomic-free add. A port without telemetry keeps the field nil and
// pays exactly one branch per transaction.
type portTelemetry struct {
	link  string
	sc    *telemetry.Scope                          // for the recorder, resolved per event so EnableRecorder works at any time
	tlps  [2]*telemetry.Counter                     // TLP segments by Dir
	types [2][telemetry.CplD + 1]*telemetry.Counter // segments by Dir, Type
}

// SetTelemetry attaches a telemetry scope to the fabric. Every port —
// already attached or attached later — gets per-direction counters
// under `<scope>/<device>/{up,down}/{tlps,memwr,memrd,cpld}`,
// utilization funcs, and (when the registry's flight recorder is
// enabled) TLP event recording. The port's UpBytes/DownBytes are
// published as `<device>/{up,down}/bytes` and the fabric's Errs fields
// under `errors/`: the fabric keeps one ledger and snapshots read it.
func (f *Fabric) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	f.tel = sc
	sc.Counter("ctrl/reads") // no untimed read exists; the golden snapshots carry the path (ROADMAP 9)
	f.ctrlWrites = sc.Counter("ctrl/writes")
	sc.CounterVar("errors/ur", &f.Errs.UR)
	sc.CounterVar("errors/cpl_timeout", &f.Errs.CplTimeouts)
	sc.CounterVar("errors/dropped", &f.Errs.DroppedTLPs)
	sc.CounterVar("errors/poisoned", &f.Errs.Poisoned)
	for _, p := range f.ports {
		p.instrument(sc)
	}
}

func (p *Port) instrument(sc *telemetry.Scope) {
	name := p.dev.PCIeName()
	s := sc.Scope(name)
	t := &portTelemetry{link: name, sc: sc}
	s.CounterVar("up/bytes", &p.UpBytes)
	s.CounterVar("down/bytes", &p.DownBytes)
	for _, dir := range []telemetry.Dir{telemetry.Up, telemetry.Down} {
		ds := s.Scope(dir.String())
		t.tlps[dir] = ds.Counter("tlps")
		t.types[dir][telemetry.MemWr] = ds.Counter("memwr")
		t.types[dir][telemetry.MemRd] = ds.Counter("memrd")
		t.types[dir][telemetry.CplD] = ds.Counter("cpld")
	}
	s.Func("up/util", p.up.Utilization)
	s.Func("down/util", p.down.Utilization)
	p.tlm = t
}

// observe charges one logical transaction — the TLP segments an n-byte
// write, read request or completion splits into, wire total wire bytes —
// to the port's segment counters and the flight recorder. end is the
// link-resource completion time returned by Acquire, so serialization
// began at end-dur.
func (p *Port) observe(dir telemetry.Dir, typ telemetry.TLPType,
	addr uint64, n, wire int, end sim.Time, dur sim.Duration) {
	segs, payload := 0, n
	switch typ {
	case telemetry.MemWr:
		segs = writeSegs(p.cfg, n)
	case telemetry.MemRd:
		segs, payload = readReqSegs(p.cfg, n), 0 // requests carry no data
	case telemetry.CplD:
		segs = cplSegs(p.cfg, n)
	}
	t := p.tlm
	t.tlps[dir].Add(int64(segs))
	t.types[dir][typ].Add(int64(segs))
	t.sc.Recorder().Record(telemetry.TLPEvent{
		Time:  end - dur,
		Dur:   dur,
		Link:  t.link,
		Dir:   dir,
		Type:  typ,
		Addr:  addr,
		Bytes: payload,
		Wire:  wire,
	})
}

// writeSegs returns the TLP count of an n-byte posted write after MPS
// splitting (a zero-byte doorbell still is one TLP), mirroring
// WriteWireBytes.
func writeSegs(c LinkConfig, n int) int {
	if n <= 0 {
		return 1
	}
	return ceilDiv(n, c.MaxPayload)
}

// readReqSegs returns the MRd request TLP count for an n-byte fetch,
// mirroring ReadReqWireBytes.
func readReqSegs(c LinkConfig, n int) int {
	if n <= 0 {
		return 0
	}
	return ceilDiv(n, c.MaxReadReq)
}

// cplSegs returns the CplD TLP count of an n-byte completion stream,
// mirroring CompletionWireBytes.
func cplSegs(c LinkConfig, n int) int {
	if n <= 0 {
		return 1
	}
	return ceilDiv(n, c.MaxPayload)
}
