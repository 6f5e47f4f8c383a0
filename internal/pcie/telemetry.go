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
	bytes [2]*telemetry.Counter                     // wire bytes by Dir
	types [2][telemetry.CplD + 1]*telemetry.Counter // segments by Dir, Type
}

// SetTelemetry attaches a telemetry scope to the fabric. Every port —
// already attached or attached later — gets per-direction counters
// under `<scope>/<device>/{up,down}/{tlps,bytes,memwr,memrd,cpld}`,
// utilization funcs, and (when the registry's flight recorder is
// enabled) TLP event recording. The byte counters are incremented at
// exactly the same points, with the same values, as the ports'
// UpBytes/DownBytes accounting, so the two reconcile to the byte.
func (f *Fabric) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	f.tel = sc
	f.ctrlReads = sc.Counter("ctrl/reads")
	f.ctrlWrites = sc.Counter("ctrl/writes")
	f.errUR = sc.Counter("errors/ur")
	f.errTimeout = sc.Counter("errors/cpl_timeout")
	f.errDropped = sc.Counter("errors/dropped")
	f.errPoisoned = sc.Counter("errors/poisoned")
	for _, p := range f.ports {
		p.instrument(sc)
	}
}

func (p *Port) instrument(sc *telemetry.Scope) {
	name := p.dev.PCIeName()
	s := sc.Scope(name)
	t := &portTelemetry{link: name, sc: sc}
	for _, dir := range []telemetry.Dir{telemetry.Up, telemetry.Down} {
		ds := s.Scope(dir.String())
		t.tlps[dir] = ds.Counter("tlps")
		t.bytes[dir] = ds.Counter("bytes")
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
// to the port's counters and the flight recorder. end is the
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
	t.bytes[dir].Add(int64(wire))
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
