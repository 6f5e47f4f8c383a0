package pcie

import (
	"fmt"

	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Fabric is a PCIe switch with point-to-point links to each attached
// device. It routes memory transactions by address: each device receives a
// BAR window in a flat 64-bit space.
//
// The Innova-2 SmartNIC embeds exactly this topology: the ConnectX-5, the
// FPGA and the host root port all hang off one internal switch (paper §6,
// Figure 6).
type Fabric struct {
	eng   *sim.Engine
	ports []*Port
	next  uint64                      // next free BAR base
	wops  sim.Pool[writeOp, *writeOp] // posted-write state records
	rops  sim.Pool[readOp, *readOp]   // read state records that settled in time

	// Telemetry (optional; see SetTelemetry).
	tel        *telemetry.Scope
	ctrlWrites *telemetry.Counter

	// Fault injection (optional; see SetFaults).
	flt *FaultHooks

	// Errs accumulates fabric-level error events independently of
	// telemetry, mirroring how Port.UpBytes/DownBytes back the byte
	// counters.
	Errs FabricErrors

	errUR       *telemetry.Counter
	errTimeout  *telemetry.Counter
	errDropped  *telemetry.Counter
	errPoisoned *telemetry.Counter
}

// FabricErrors counts error events on the fabric: unsupported-request
// completions, completion timeouts, fault-injected TLP drops (including
// link-flap windows) and poisoned TLPs.
type FabricErrors struct {
	UR          int64
	CplTimeouts int64
	DroppedTLPs int64
	Poisoned    int64
}

// FaultHooks lets a fault-injection plane intercept data-plane
// transactions. Every hook is optional (nil means "never"). Hooks are
// consulted once per logical transaction leg, before that leg charges
// any wire bytes, so byte accounting and telemetry stay exact whether
// or not faults fire.
type FaultHooks struct {
	// Drop reports whether to silently lose the transaction of the
	// given TLP type initiated by the port. A dropped write never
	// reaches the target; a dropped read request or completion leaves
	// the requester to its completion timeout.
	Drop func(p *Port, typ telemetry.TLPType) bool
	// Corrupt reports whether to poison the transaction's payload
	// (EP bit). A poisoned write traverses the wire but is discarded by
	// the completer; a poisoned completion surfaces as CplPoisoned.
	// Only consulted for payload-bearing TLPs (MemWr, CplD).
	Corrupt func(p *Port, typ telemetry.TLPType) bool
	// Down reports whether the port's link is inside a flap window;
	// while down every transaction touching the link is dropped.
	Down func(p *Port) bool
}

// SetFaults installs (or, with nil, removes) fault-injection hooks.
func (f *Fabric) SetFaults(h *FaultHooks) { f.flt = h }

func (f *Fabric) linkDown(p *Port) bool {
	return f.flt != nil && f.flt.Down != nil && f.flt.Down(p)
}

func (f *Fabric) dropTLP(p *Port, typ telemetry.TLPType) bool {
	return f.flt != nil && f.flt.Drop != nil && f.flt.Drop(p, typ)
}

func (f *Fabric) corruptTLP(p *Port, typ telemetry.TLPType) bool {
	return f.flt != nil && f.flt.Corrupt != nil && f.flt.Corrupt(p, typ)
}

func (f *Fabric) noteUR()      { f.Errs.UR++; f.errUR.Inc() }
func (f *Fabric) noteTimeout() { f.Errs.CplTimeouts++; f.errTimeout.Inc() }
func (f *Fabric) noteDrop()    { f.Errs.DroppedTLPs++; f.errDropped.Inc() }
func (f *Fabric) notePoison()  { f.Errs.Poisoned++; f.errPoisoned.Inc() }

// Port is a device's attachment point. Up is the device-to-switch
// direction, down is switch-to-device; each is an independent serialization
// resource so bidirectional traffic does not falsely contend.
type Port struct {
	fab  *Fabric
	dev  Device
	cfg  LinkConfig
	rate sim.BitRate // cfg.EffectiveRate(), which every TLP reads
	base uint64
	size uint64
	up   *sim.Resource
	down *sim.Resource

	// Byte counters for utilization reporting (wire bytes incl. overhead).
	UpBytes, DownBytes int64

	tlm *portTelemetry // nil unless the fabric has telemetry attached
}

// NewFabric returns an empty fabric on the given engine.
func NewFabric(eng *sim.Engine) *Fabric {
	return &Fabric{eng: eng, next: 0x1000_0000}
}

// Engine returns the simulation engine the fabric schedules on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Attach connects dev through a link with the given configuration and
// assigns it a BAR window. The returned Port is the device's initiator
// handle for DMA.
func (f *Fabric) Attach(dev Device, cfg LinkConfig) *Port {
	if cfg.CplTimeout == 0 {
		cfg.CplTimeout = DefaultCplTimeout
	}
	size := dev.BARSize()
	// Align the window to its size rounded up to a power of two, as PCIe
	// BARs are naturally aligned.
	align := uint64(1)
	for align < size {
		align <<= 1
	}
	base := (f.next + align - 1) &^ (align - 1)
	p := &Port{
		fab:  f,
		dev:  dev,
		cfg:  cfg,
		rate: cfg.EffectiveRate(),
		base: base,
		size: size,
		up:   sim.NewResource(f.eng),
		down: sim.NewResource(f.eng),
	}
	f.next = base + align
	f.ports = append(f.ports, p)
	if f.tel != nil {
		p.instrument(f.tel)
	}
	return p
}

// Base returns the BAR base address assigned to the port's device.
func (p *Port) Base() uint64 { return p.base }

// Device returns the attached device.
func (p *Port) Device() Device { return p.dev }

// target resolves the n-byte span at addr to the port that owns all of it.
// ok is false when no device claims the address or the span runs past the
// end of its BAR — on the data plane that is an Unsupported Request,
// answered with an error completion rather than a crash.
func (f *Fabric) target(addr uint64, n int) (p *Port, ok bool) {
	for _, p := range f.ports {
		if off := addr - p.base; addr >= p.base && off < p.size {
			// BARs do not overlap: the first byte's owner decides.
			if uint64(n) > p.size-off {
				return nil, false
			}
			return p, true
		}
	}
	return nil, false
}

// mustTarget resolves the span or panics. Control-plane accesses use it: an
// unmapped address during software setup is always a model bug and must
// fail loudly.
func (f *Fabric) mustTarget(addr uint64, n int) *Port {
	p, ok := f.target(addr, n)
	if !ok {
		panic(fmt.Sprintf("pcie: no device at [%#x,%#x)", addr, addr+uint64(n)))
	}
	return p
}

// --- Untimed (control-plane) access ------------------------------------

// Write performs an immediate, untimed write.
func (f *Fabric) Write(addr uint64, data []byte) {
	p := f.mustTarget(addr, len(data))
	f.ctrlWrites.Inc()
	p.dev.MMIOWrite(addr-p.base, data)
}

// --- Timed (data-plane) transactions ------------------------------------
//
// A TLP crossing a link occupies the link's FIFO serializer and then a
// fixed propagation delay. Only the far end of that crossing decides
// anything, so each crossing is one event at end-of-serialization plus
// propagation — the serializer's completion time is known the moment the
// TLP is queued (sim.Resource.Acquire returns it).

// Write posts an n-byte memory write from this port to addr. The write is
// posted: done (optional) fires when the last byte reaches the target
// device. Wire time is charged on the initiator's upstream direction and
// the target's downstream direction.
//
// Error semantics: a write to an unmapped address, or one that runs past
// the end of its target's BAR, is an Unsupported Request — posted writes
// carry no completion, so the TLP is dropped and only the fabric's error
// counters record it. The same holds for fault-injected drops and
// link-flap windows (no bytes charged: the TLP never serialized), and for
// poisoned writes (bytes charged on both links, but the completer discards
// the payload and done never fires).
func (p *Port) Write(addr uint64, data []byte, done func()) {
	p.write(addr, data, done, nil, nil, false)
}

// WriteOwned is Write with payload-buffer ownership transfer: data must
// come from the engine's BufPool (sim.Engine.Bufs), and the fabric returns
// it to the pool once the transaction resolves — after the completer
// consumed it, or immediately on UR/drop/poison. The caller must not touch
// data after the call.
func (p *Port) WriteOwned(addr uint64, data []byte, done func()) {
	p.write(addr, data, done, nil, nil, true)
}

// WriteArg is Write with an arg-form completion callback, for callers that
// keep their post-write state in a preallocated record instead of a
// closure. done may be nil.
func (p *Port) WriteArg(addr uint64, data []byte, done func(any), arg any) {
	p.write(addr, data, nil, done, arg, false)
}

// WriteOwnedArg combines WriteOwned's payload ownership transfer with
// WriteArg's closure-free completion.
func (p *Port) WriteOwnedArg(addr uint64, data []byte, done func(any), arg any) {
	p.write(addr, data, nil, done, arg, true)
}

// writeOp is the state of one posted write in flight. Records are recycled
// through the fabric's pool and stepped through the static trampolines
// below, so the steady-state DMA-write path allocates nothing per TLP.
type writeOp struct {
	sim.Link[writeOp]
	p, q     *Port
	addr     uint64
	data     []byte
	done     func()
	adone    func(any) // arg-form completion (WriteArg); at most one of done/adone set
	aarg     any
	poisoned bool
	owned    bool // return data to the engine's BufPool on resolution
}

// putWriteOp recycles a resolved write, handing an owned payload back to
// the engine's BufPool.
func (f *Fabric) putWriteOp(o *writeOp) {
	if o.owned {
		f.eng.Bufs().Put(o.data)
	}
	*o = writeOp{}
	f.wops.Put(o)
}

func (p *Port) write(addr uint64, data []byte, done func(), adone func(any), aarg any, owned bool) {
	q, ok := p.fab.target(addr, len(data))
	if !ok {
		p.fab.noteUR()
		if owned {
			p.fab.eng.Bufs().Put(data)
		}
		return
	}
	if p.fab.linkDown(p) || p.fab.linkDown(q) || p.fab.dropTLP(p, telemetry.MemWr) {
		p.fab.noteDrop()
		if owned {
			p.fab.eng.Bufs().Put(data)
		}
		return
	}
	o := p.fab.wops.Get()
	o.p, o.q, o.addr, o.data, o.owned = p, q, addr, data, owned
	o.done, o.adone, o.aarg = done, adone, aarg
	o.poisoned = p.fab.corruptTLP(p, telemetry.MemWr)
	p.fab.eng.AtArg(p.cross(telemetry.Up, telemetry.MemWr, addr, len(data)), writeAtSwitch, o)
}

// cross puts one logical transaction — the TLPs of an n-byte write, of
// the requests for an n-byte read, or of an n-byte completion stream — on
// one direction of the port's link: its wire bytes are charged, the link's
// serializer is occupied behind whatever is queued, and the crossing is
// observed if the fabric is instrumented. It returns the instant the last
// byte reaches the far end.
func (p *Port) cross(dir telemetry.Dir, typ telemetry.TLPType, addr uint64, n int) sim.Time {
	var wire int
	switch typ {
	case telemetry.MemWr:
		wire = p.cfg.WriteWireBytes(n)
	case telemetry.MemRd:
		wire = p.cfg.ReadReqWireBytes(n)
	case telemetry.CplD:
		wire = p.cfg.CompletionWireBytes(n)
	}
	link, bytes := p.up, &p.UpBytes
	if dir == telemetry.Down {
		link, bytes = p.down, &p.DownBytes
	}
	*bytes += int64(wire)
	d := p.rate.Serialize(wire)
	end := link.Acquire(d)
	if p.tlm != nil {
		p.observe(dir, typ, addr, n, wire, end, d)
	}
	return end + p.cfg.PropDelay
}

// writeAtSwitch: the TLP reached the switch; cross the target's down link.
func writeAtSwitch(a any) {
	o := a.(*writeOp)
	o.p.fab.eng.AtArg(o.q.cross(telemetry.Down, telemetry.MemWr, o.addr, len(o.data)), writeDeliver, o)
}

// writeDeliver: the last byte arrived; deliver to the device (or discard a
// poisoned payload) and recycle the record.
func writeDeliver(a any) {
	o := a.(*writeOp)
	fab := o.p.fab
	if o.poisoned {
		fab.notePoison()
		fab.putWriteOp(o)
		return
	}
	o.q.dev.MMIOWrite(o.addr-o.q.base, o.data)
	done, adone, aarg := o.done, o.adone, o.aarg
	fab.putWriteOp(o)
	if done != nil {
		done()
	}
	if adone != nil {
		adone(aarg)
	}
}

// Read fetches size bytes at addr. The request TLPs traverse initiator-up
// and target-down; the target's MMIORead executes; the completion stream
// returns over target-up and initiator-down. done receives a Completion:
// data on success, or an error status.
//
// Error semantics (all surfaced through done, never by hanging):
//
//   - unmapped address, or a span that runs past the end of its target's
//     BAR → the switch answers with an Unsupported-Request completion
//     (CplUR) after the request serializes;
//   - non-responding device (MMIORead returns nil), a dropped request or
//     completion, or a link-flap window → the requester's completion
//     timeout (LinkConfig.CplTimeout) fires and done gets CplTimedOut;
//   - corrupted completion payload → full wire traversal, then
//     CplPoisoned with no data.
//
// Every Read carries a completion deadline, so a wedged completer can
// never deadlock the simulation. The timeout event itself is scheduled
// only once the read can no longer settle before the deadline — where the
// request or completion is lost, and at a link crossing that ends at or
// past it — so a read that settles in time leaves nothing on the heap.
func (p *Port) Read(addr uint64, size int, done func(c Completion)) {
	o := p.fab.rops.Get()
	o.p, o.addr, o.size, o.done = p, addr, size, done
	o.q, o.hasTarget = p.fab.target(addr, size)
	// The timeout budget scales with the transfer: real completers
	// return large reads as a stream of CplD segments, each of which
	// resets the requester's completion timer. The budget is the base
	// timeout plus one full round trip — request and completion each
	// serialize on two links and cross two propagation hops.
	o.deadline = p.fab.eng.Now() + p.cfg.CplTimeout +
		2*p.rate.Serialize(p.cfg.ReadReqWireBytes(size)+p.cfg.CompletionWireBytes(size)) +
		4*p.cfg.PropDelay

	if p.fab.linkDown(p) || p.fab.dropTLP(p, telemetry.MemRd) {
		// The request vanished before serializing.
		p.fab.noteDrop()
		o.expire()
		return
	}
	o.step(p.cross(telemetry.Up, telemetry.MemRd, addr, size), readReqAtSwitch)
}

// readOp is the state of one non-posted read in flight, stepped through
// the static trampolines below. A read that settles in time holds the
// only reference to its record, which returns to the fabric's pool; a
// record whose timeout was scheduled may still be riding a late
// completion when the timeout fires (or the reverse), so it is left to
// the garbage collector instead.
type readOp struct {
	sim.Link[readOp]
	p, q      *Port
	addr      uint64
	size      int
	done      func(Completion)
	data      []byte
	status    CplStatus
	deadline  sim.Time
	expired   bool // the timeout is scheduled and owns the resolution
	hasTarget bool
}

// expire hands the read's resolution to the completion timeout: from here
// on nothing can settle it before the deadline.
func (o *readOp) expire() {
	if !o.expired {
		o.expired = true
		o.p.fab.eng.AtArg(o.deadline, readTimeout, o)
	}
}

// step schedules the transaction's next step at instant t, the far end of
// a link crossing. A crossing that ends at or past the deadline loses to
// the timeout, scheduled first so it wins the tie against this read's own
// crossing (only that: unrelated events already queued for the deadline
// instant run before it). The TLP still travels on, charging every link.
func (o *readOp) step(t sim.Time, next func(any)) {
	if t >= o.deadline {
		o.expire()
	}
	o.p.fab.eng.AtArg(t, next, o)
}

// readTimeout fires at the deadline of a read that could not settle in
// time.
func readTimeout(a any) {
	o := a.(*readOp)
	o.p.fab.noteTimeout()
	o.done(Completion{Status: CplTimedOut})
}

// readReqAtSwitch: the request reached the switch; route it to the target
// or answer UR.
func readReqAtSwitch(a any) {
	o := a.(*readOp)
	fab := o.p.fab
	if !o.hasTarget {
		// Unsupported Request: the switch returns a dataless error
		// completion over the requester's down link.
		fab.noteUR()
		o.completeRead(nil, CplUR)
		return
	}
	q := o.q
	if fab.linkDown(q) {
		fab.noteDrop()
		o.expire()
		return
	}
	o.step(q.cross(telemetry.Down, telemetry.MemRd, o.addr, o.size), readAtDevice)
}

// readAtDevice: the completer executes MMIORead and streams the completion
// back over its up link.
func readAtDevice(a any) {
	o := a.(*readOp)
	q, fab := o.q, o.p.fab
	data := q.dev.MMIORead(o.addr-q.base, o.size)
	if data == nil {
		// Non-responding completer: no completion is ever generated.
		o.expire()
		return
	}
	if fab.linkDown(q) || fab.dropTLP(q, telemetry.CplD) {
		fab.noteDrop()
		o.expire()
		return
	}
	o.status = CplSuccess
	if fab.corruptTLP(q, telemetry.CplD) {
		fab.notePoison()
		o.status = CplPoisoned
	}
	o.data = data
	o.step(q.cross(telemetry.Up, telemetry.CplD, o.addr, len(data)), readCplAtSwitch)
}

// readCplAtSwitch: the completion reached the switch; a poisoned payload
// is discarded here, then the stream serializes to the requester.
func readCplAtSwitch(a any) {
	o := a.(*readOp)
	if o.status == CplPoisoned {
		o.data = nil
	}
	o.completeRead(o.data, o.status)
}

// completeRead sends the completion stream (or a dataless error
// completion) over the requester's down link to settle the read.
func (o *readOp) completeRead(data []byte, status CplStatus) {
	o.data, o.status = data, status
	o.step(o.p.cross(telemetry.Down, telemetry.CplD, o.addr, len(data)), readSettle)
}

// readSettle delivers the completion to the caller, unless the timeout
// already has (or is about to): late data is discarded.
func readSettle(a any) {
	o := a.(*readOp)
	if o.expired {
		return
	}
	fab, done, c := o.p.fab, o.done, Completion{Data: o.data, Status: o.status}
	*o = readOp{}
	fab.rops.Put(o)
	done(c)
}

// AddrOf returns the fabric address corresponding to an offset within the
// given device's BAR, or panics if the device is not attached.
func (f *Fabric) AddrOf(dev Device, offset uint64) uint64 {
	for _, p := range f.ports {
		if p.dev == dev {
			if offset >= p.size {
				panic(fmt.Sprintf("pcie: offset %#x beyond BAR of %s", offset, dev.PCIeName()))
			}
			return p.base + offset
		}
	}
	panic(fmt.Sprintf("pcie: device %s not attached", dev.PCIeName()))
}

// Ports returns every attached port in attach order. Callers use it to
// reconcile external accounting (e.g. telemetry byte counters) against
// the ports' UpBytes/DownBytes ground truth.
func (f *Fabric) Ports() []*Port {
	out := make([]*Port, len(f.ports))
	copy(out, f.ports)
	return out
}

// PortOf returns the port of an attached device, or nil.
func (f *Fabric) PortOf(dev Device) *Port {
	for _, p := range f.ports {
		if p.dev == dev {
			return p
		}
	}
	return nil
}
