// Package faults is the testbed's deterministic fault-injection plane.
// A Plan is built from a seed and a Config and attached to the layers it
// perturbs (PCIe fabrics, NICs, FLDs, Ethernet links) through each
// layer's FaultHooks. Every attachment derives its own sim.Rand stream
// from (plan seed, attachment ordinal), and attachment order is fixed by
// construction order — so a (seed, config, workload) triple replays the
// exact same fault sequence on every run. The chaos
// experiment leans on this to assert recovery invariants under
// randomized-but-reproducible fault storms, printing the seed on failure
// so any storm can be replayed under a debugger.
package faults

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"flexdriver/internal/fld"
	"flexdriver/internal/kvspec"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// Config selects fault classes and their rates. The zero value injects
// nothing. Probabilities are per-event (per TLP, per doorbell, per
// frame, ...) in [0, 1].
type Config struct {
	// Start/Stop bound the probabilistic injection window in engine
	// time; Stop == 0 means "no upper bound". Deterministic injections
	// (WireDropNth) ignore the window. A Plan only honors the window
	// once bound to an engine (the facade does this); unbound plans
	// treat every instant as active.
	Start, Stop sim.Duration

	// --- PCIe ---
	PCIeDrop    float64      // drop a TLP before serialization (no bytes on the wire)
	PCIeCorrupt float64      // poison a TLP: full wire traversal, payload discarded
	FlapEvery   sim.Duration // link-flap period; 0 disables flapping
	FlapFor     sim.Duration // the link is down in [k*FlapEvery, k*FlapEvery+FlapFor)

	// --- NIC ---
	DoorbellLoss float64 // lose a 4-byte doorbell MMIO write (self-healing)
	WQEFetchFail float64 // fail an SQ descriptor fetch -> queue-fatal SynQueueErr
	CQEErr       float64 // rewrite a success CQE into SynInjected

	// --- Accelerator ---
	AccelStall float64 // FLD drops a received frame instead of processing it

	// --- Ethernet wire (RDMA loss/dup/reorder live here) ---
	WireLoss    float64      // lose a frame after serialization
	WireDup     float64      // deliver a frame twice
	WireDelay   float64      // delay a frame (later frames overtake it: reordering)
	WireDelayBy sim.Duration // extra latency for delayed frames (default 2us)
	// WireDir restricts wire faults to one direction: 0 = both,
	// 1 = direction 0 only (end A transmits), 2 = direction 1 only.
	WireDir int
	// WireDropNth deterministically drops the Nth frame (1-based,
	// counted per direction among WireDir-matching frames), independent
	// of the window and the random stream. Used by tests that need one
	// exact loss.
	WireDropNth []int64

	// --- Failure domains (device/node crash–restart schedules) ---
	// Each class is a seeded schedule of crash episodes: the component
	// crashes around Start + Every, stays down for about For, restarts,
	// and the cycle repeats until Stop (Stop == 0 yields one episode).
	// Both intervals carry ±25% jitter drawn from a stream derived at
	// attach time, so the whole schedule is a pure function of
	// (seed, topology) — independent of event interleaving, hence
	// identical under sequential and parallel cluster runs. Episodes are
	// clamped so every component is back up by Stop; the recovery ladder
	// then has the drain phase to restore traffic.
	FLDResetEvery, FLDResetFor   sim.Duration // FLD/AFU hard reset
	NICFLREvery, NICFLRFor       sim.Duration // NIC function-level reset
	NodeCrashEvery, NodeCrashFor sim.Duration // full node (NIC+FLD+driver) crash–restart
	DrvCrashEvery, DrvCrashFor   sim.Duration // host driver process crash
	SwRebootEvery, SwRebootFor   sim.Duration // ToR switch reboot (FDB flushed)
	PartEvery, PartFor           sim.Duration // link partition/heal (both directions cut)
}

// Counts tallies injected faults per class. The crash classes count one
// injection per component per episode; PartitionDrops counts each frame
// a partitioned link swallowed (the partition window itself has no
// single injection instant — its cost is exactly its drops).
type Counts struct {
	PCIeDrops, PCIeCorrupts, LinkFlapTLPs         int64
	DoorbellLosses, WQEFetchFails, CQEErrors      int64
	AccelStalls                                   int64
	WireLosses, WireDups, WireDelays, WireDropped int64
	FLDResets, NICFLRs, NodeCrashes               int64
	DrvCrashes, SwReboots, PartitionDrops         int64
}

// Total returns the total number of injected faults.
func (c Counts) Total() int64 {
	return c.PCIeDrops + c.PCIeCorrupts + c.LinkFlapTLPs +
		c.DoorbellLosses + c.WQEFetchFails + c.CQEErrors +
		c.AccelStalls +
		c.WireLosses + c.WireDups + c.WireDelays + c.WireDropped +
		c.FLDResets + c.NICFLRs + c.NodeCrashes +
		c.DrvCrashes + c.SwReboots + c.PartitionDrops
}

// Plan is a bound fault-injection plan. One Plan may be attached to any
// number of fabrics/NICs/FLDs/links; each attachment derives a private
// random stream from the plan seed and its attachment ordinal, which
// keeps the whole testbed's fault sequence a pure function of
// (seed, config, construction order).
type Plan struct {
	Cfg Config
	// Injected tallies what was actually injected, for reconciliation
	// against observed loss; SetTelemetry publishes the same fields as
	// injected/<class>. note adds to it atomically; read it only
	// between runs.
	Injected Counts

	seed    int64
	nstream int64       // attachment-stream ordinal allocator
	eng     *sim.Engine // default clock for streams without their own
}

// NewPlan builds a plan drawing all probabilistic decisions from the
// given seed.
func NewPlan(seed int64, cfg Config) *Plan {
	if cfg.WireDelayBy == 0 {
		cfg.WireDelayBy = 2 * sim.Microsecond
	}
	return &Plan{Cfg: cfg, seed: seed}
}

// Bind attaches the plan's default clock so the Start/Stop window and
// link-flap schedule are evaluated against simulated time even for
// attachments that carry no engine of their own (bare links in tests).
// The facade calls this; unbound plans treat every instant as active.
func (p *Plan) Bind(eng *sim.Engine) { p.eng = eng }

// mixSeed derives a child-stream seed (splitmix64-style finalizer) from
// the plan seed and the attachment ordinal.
func mixSeed(seed, k int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// stream is one attachment's private fault source: a derived random
// stream plus the clock of the engine that evaluates the hooks.
type stream struct {
	p   *Plan
	rng *sim.Rand
	eng *sim.Engine
}

// newStream allocates the next attachment stream, evaluated on eng's
// clock (or the plan's default clock when eng is nil). Construction-time
// only: the ordinal sequence is part of the deterministic topology.
func (p *Plan) newStream(eng *sim.Engine) *stream {
	p.nstream++
	return &stream{p: p, rng: sim.NewRand(mixSeed(p.seed, p.nstream)), eng: eng}
}

func (s *stream) clock() *sim.Engine {
	if s.eng != nil {
		return s.eng
	}
	return s.p.eng
}

// active reports whether the probabilistic window is open.
func (s *stream) active() bool {
	eng := s.clock()
	if eng == nil {
		return true
	}
	now := eng.Now()
	if now < s.p.Cfg.Start {
		return false
	}
	return s.p.Cfg.Stop == 0 || now < s.p.Cfg.Stop
}

// flapDown reports whether the link-flap schedule has the link down.
func (s *stream) flapDown() bool {
	if s.p.Cfg.FlapEvery <= 0 || !s.active() {
		return false
	}
	eng := s.clock()
	if eng == nil {
		return false
	}
	return eng.Now()%s.p.Cfg.FlapEvery < s.p.Cfg.FlapFor
}

// inject draws one Bernoulli decision and records a hit in tally; the
// draw is skipped entirely when prob is zero so disabled fault classes
// don't consume random numbers.
func (s *stream) inject(prob float64, tally *int64) bool {
	hit := prob > 0 && s.active() && s.rng.Float64() < prob
	if hit {
		s.p.note(tally)
	}
	return hit
}

// note records one injection. Atomic: one plan may serve clusters that
// different goroutines run, and all funnel into its shared tallies.
func (p *Plan) note(n *int64) { atomic.AddInt64(n, 1) }

// SetTelemetry publishes the Injected tallies in sc as injected/<class>
// counters. Every node of a testbed that shares the plan calls this with
// the same scope; binding again is a no-op.
func (p *Plan) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		return
	}
	c := &p.Injected
	sc = sc.Scope("injected")
	sc.CounterVar("pcie_drops", &c.PCIeDrops)
	sc.CounterVar("pcie_corrupts", &c.PCIeCorrupts)
	sc.CounterVar("link_flap_tlps", &c.LinkFlapTLPs)
	sc.CounterVar("doorbell_losses", &c.DoorbellLosses)
	sc.CounterVar("wqe_fetch_fails", &c.WQEFetchFails)
	sc.CounterVar("cqe_errors", &c.CQEErrors)
	sc.CounterVar("accel_stalls", &c.AccelStalls)
	sc.CounterVar("wire_losses", &c.WireLosses)
	sc.CounterVar("wire_dups", &c.WireDups)
	sc.CounterVar("wire_delays", &c.WireDelays)
	sc.CounterVar("wire_dropped", &c.WireDropped)
	sc.CounterVar("fld_resets", &c.FLDResets)
	sc.CounterVar("nic_flrs", &c.NICFLRs)
	sc.CounterVar("node_crashes", &c.NodeCrashes)
	sc.CounterVar("drv_crashes", &c.DrvCrashes)
	sc.CounterVar("sw_reboots", &c.SwReboots)
	sc.CounterVar("partition_drops", &c.PartitionDrops)
}

// --- failure domains ------------------------------------------------------

// Crashable is a component a failure-domain class can tear down and
// bring back: *nic.NIC, *fld.FLD, swdriver drivers and the Ethernet
// switch all implement it. Crash tears the component's state down
// (in-flight work is dropped with enumerated reasons); Restart makes it
// serviceable again — the driver-side recovery ladder is what actually
// restores traffic.
type Crashable interface {
	Crash()
	Restart()
}

// episode is one crash window: the component is down in [at, until).
type episode struct{ at, until sim.Time }

// maxEpisodes bounds a schedule so an unbounded window cannot flood the
// event queue at attach time.
const maxEpisodes = 64

// episodes precomputes one class's crash windows. The jittered schedule
// is drawn from a fresh attachment stream at construction time, so it
// depends only on (seed, ordinal) — never on event order. Every window
// is clamped to end by Stop: the component is always restarted inside
// the fault window, leaving the drain phase for recovery. With Stop == 0
// (no upper bound) a single episode is scheduled.
func (p *Plan) episodes(every, dur sim.Duration) []episode {
	if every <= 0 || dur <= 0 {
		return nil
	}
	p.nstream++
	rng := sim.NewRand(mixSeed(p.seed, p.nstream))
	jitter := func(d sim.Duration) sim.Duration {
		return sim.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
	}
	start, stop := p.Cfg.Start, p.Cfg.Stop
	var eps []episode
	t := start + jitter(every)
	for len(eps) < maxEpisodes {
		d := jitter(dur)
		if stop > 0 {
			if t >= stop {
				break
			}
			if t+d > stop {
				d = stop - t
			}
		}
		eps = append(eps, episode{at: t, until: t + d})
		if stop == 0 {
			break
		}
		t += jitter(every)
	}
	return eps
}

// attachCrash schedules one class's episodes on the component's engine:
// every attached component crashes at each window's start and
// restarts at its end. note tallies one injection per component per
// episode at the crash instant.
func (p *Plan) attachCrash(eng *sim.Engine, every, dur sim.Duration, note func(), comps ...Crashable) {
	if eng == nil || len(comps) == 0 {
		return
	}
	// A component attached mid-run (a core instantiated by the tenancy
	// control plane, say) joins the remaining schedule; windows already
	// in the past don't apply to it.
	now := eng.Now()
	for _, ep := range p.episodes(every, dur) {
		ep := ep
		if ep.at < now {
			continue
		}
		eng.After(ep.at-now, func() {
			for _, c := range comps {
				note()
				c.Crash()
			}
		})
		eng.After(ep.until-now, func() {
			for _, c := range comps {
				c.Restart()
			}
		})
	}
}

// AttachFLDReset schedules FLD/AFU hard resets for one accelerator.
func (p *Plan) AttachFLDReset(eng *sim.Engine, f Crashable) {
	p.attachCrash(eng, p.Cfg.FLDResetEvery, p.Cfg.FLDResetFor,
		func() { p.note(&p.Injected.FLDResets) }, f)
}

// AttachNICFLR schedules NIC function-level resets for one adapter.
func (p *Plan) AttachNICFLR(eng *sim.Engine, n Crashable) {
	p.attachCrash(eng, p.Cfg.NICFLREvery, p.Cfg.NICFLRFor,
		func() { p.note(&p.Injected.NICFLRs) }, n)
}

// AttachNodeCrash schedules whole-node crash–restart cycles: every
// component of the node (NIC, FLD cores, driver) goes down and comes
// back together, as when an Innova loses power or a host reboots.
func (p *Plan) AttachNodeCrash(eng *sim.Engine, comps ...Crashable) {
	p.attachCrash(eng, p.Cfg.NodeCrashEvery, p.Cfg.NodeCrashFor,
		func() { p.note(&p.Injected.NodeCrashes) }, comps...)
}

// AttachDriverCrash schedules host-driver process crashes.
func (p *Plan) AttachDriverCrash(eng *sim.Engine, d Crashable) {
	p.attachCrash(eng, p.Cfg.DrvCrashEvery, p.Cfg.DrvCrashFor,
		func() { p.note(&p.Injected.DrvCrashes) }, d)
}

// AttachSwitchReboot schedules ToR switch reboots.
func (p *Plan) AttachSwitchReboot(eng *sim.Engine, sw Crashable) {
	p.attachCrash(eng, p.Cfg.SwRebootEvery, p.Cfg.SwRebootFor,
		func() { p.note(&p.Injected.SwReboots) }, sw)
}

// --- attachment -----------------------------------------------------------

// AttachFabric installs the PCIe fault hooks (TLP drop, poison,
// link-flap windows) on a fabric, drawing from a stream private to this
// attachment on the fabric's own engine. No-op when no PCIe class is
// enabled.
func (p *Plan) AttachFabric(f *pcie.Fabric) {
	c := &p.Cfg
	if c.PCIeDrop == 0 && c.PCIeCorrupt == 0 && c.FlapEvery == 0 {
		return
	}
	s := p.newStream(f.Engine())
	f.SetFaults(&pcie.FaultHooks{
		Drop: func(_ *pcie.Port, _ telemetry.TLPType) bool {
			return s.inject(c.PCIeDrop, &p.Injected.PCIeDrops)
		},
		Corrupt: func(_ *pcie.Port, _ telemetry.TLPType) bool {
			return s.inject(c.PCIeCorrupt, &p.Injected.PCIeCorrupts)
		},
		Down: func(_ *pcie.Port) bool {
			if s.flapDown() {
				p.note(&p.Injected.LinkFlapTLPs)
				return true
			}
			return false
		},
	})
}

// AttachNIC installs the NIC fault hooks (doorbell loss, WQE-fetch
// failure, CQE errors) on a stream private to this attachment. No-op
// when no NIC class is enabled.
func (p *Plan) AttachNIC(n *nic.NIC) {
	c := &p.Cfg
	if c.DoorbellLoss == 0 && c.WQEFetchFail == 0 && c.CQEErr == 0 {
		return
	}
	s := p.newStream(n.Engine())
	n.SetFaults(&nic.FaultHooks{
		DropDoorbell: func(_ *nic.NIC) bool {
			return s.inject(c.DoorbellLoss, &p.Injected.DoorbellLosses)
		},
		FailWQEFetch: func(_ *nic.SQ) bool {
			return s.inject(c.WQEFetchFail, &p.Injected.WQEFetchFails)
		},
		CQEError: func(_ *nic.CQ) bool {
			return s.inject(c.CQEErr, &p.Injected.CQEErrors)
		},
	})
}

// AttachFLD installs the accelerator-stall hook. No-op when disabled.
func (p *Plan) AttachFLD(f *fld.FLD) {
	c := &p.Cfg
	if c.AccelStall == 0 {
		return
	}
	s := p.newStream(f.Engine())
	f.SetFaults(&fld.FaultHooks{
		AccelStall: func(_ *fld.FLD) bool {
			return s.inject(c.AccelStall, &p.Injected.AccelStalls)
		},
	})
}

// dirMatch applies the WireDir restriction.
func (p *Plan) dirMatch(dir int) bool {
	switch p.Cfg.WireDir {
	case 1:
		return dir == 0
	case 2:
		return dir == 1
	default:
		return true
	}
}

// AttachLink installs the wire fault hooks on any Ethernet link — a
// point-to-point cable or one switch port's segment — whose hooks run on
// eng. Each direction draws from its own attachment stream. A nil engine
// falls back to the plan's default clock (bare links in tests).
// WireDropNth ordinals count per link, per direction, so attaching the
// plan to every link of a cluster drops the Nth frame of each,
// independently. No-op when no wire class is enabled.
func (p *Plan) AttachLink(l *nic.Link, eng *sim.Engine) {
	c := &p.Cfg
	// Partition windows are precomputed per link, once, and then read
	// passively from both directions' Loss hooks.
	parts := p.episodes(c.PartEvery, c.PartFor)
	if c.WireLoss == 0 && c.WireDup == 0 && c.WireDelay == 0 &&
		len(c.WireDropNth) == 0 && len(parts) == 0 {
		return
	}
	// Per-direction streams and ordinals.
	ss := [2]*stream{p.newStream(eng), p.newStream(eng)}
	seq := new([2]int64)
	partitioned := func(dir int) bool {
		if len(parts) == 0 {
			return false
		}
		eng := ss[dir].clock()
		if eng == nil {
			return false
		}
		now := eng.Now()
		for _, ep := range parts {
			if now >= ep.at && now < ep.until {
				return true
			}
		}
		return false
	}
	l.Loss = func(dir int, _ []byte) bool {
		// A partitioned link swallows every frame in both directions,
		// regardless of WireDir; each casualty is tallied so frame
		// conservation can attribute it.
		if partitioned(dir) {
			p.note(&p.Injected.PartitionDrops)
			return true
		}
		if !p.dirMatch(dir) {
			return false
		}
		seq[dir]++
		for _, k := range c.WireDropNth {
			if seq[dir] == k {
				p.note(&p.Injected.WireDropped)
				return true
			}
		}
		return ss[dir].inject(c.WireLoss, &p.Injected.WireLosses)
	}
	l.Dup = func(dir int, _ []byte) bool {
		if !p.dirMatch(dir) {
			return false
		}
		return ss[dir].inject(c.WireDup, &p.Injected.WireDups)
	}
	l.Delay = func(dir int, _ []byte) sim.Duration {
		if !p.dirMatch(dir) {
			return 0
		}
		if ss[dir].inject(c.WireDelay, &p.Injected.WireDelays) {
			return c.WireDelayBy
		}
		return 0
	}
}

// --- spec parsing ---------------------------------------------------------

// Presets name ready-made configurations for the -faults CLI flag.
var Presets = map[string]Config{
	// light exercises every recovery path at rates the echo workload
	// fully absorbs.
	"light": {
		PCIeDrop: 0.002, PCIeCorrupt: 0.001,
		DoorbellLoss: 0.01, WQEFetchFail: 0.002, CQEErr: 0.002,
		AccelStall: 0.005,
		WireLoss:   0.01, WireDup: 0.005, WireDelay: 0.01,
	},
	// heavy is a storm: every class at rates that keep multiple
	// recoveries in flight at once.
	"heavy": {
		PCIeDrop: 0.01, PCIeCorrupt: 0.005,
		FlapEvery: 400 * sim.Microsecond, FlapFor: 3 * sim.Microsecond,
		DoorbellLoss: 0.05, WQEFetchFail: 0.01, CQEErr: 0.01,
		AccelStall: 0.02,
		WireLoss:   0.03, WireDup: 0.02, WireDelay: 0.03,
	},
	// crash layers the device/node failure domains over light packet
	// noise: every class of the recovery ladder fires at least once in a
	// sub-millisecond window.
	"crash": {
		DoorbellLoss: 0.01, WireLoss: 0.005,
		FLDResetEvery: 150 * sim.Microsecond, FLDResetFor: 4 * sim.Microsecond,
		NICFLREvery: 120 * sim.Microsecond, NICFLRFor: 4 * sim.Microsecond,
		NodeCrashEvery: 300 * sim.Microsecond, NodeCrashFor: 8 * sim.Microsecond,
		DrvCrashEvery: 200 * sim.Microsecond, DrvCrashFor: 6 * sim.Microsecond,
		SwRebootEvery: 400 * sim.Microsecond, SwRebootFor: 4 * sim.Microsecond,
		PartEvery: 250 * sim.Microsecond, PartFor: 6 * sim.Microsecond,
	},
}

// specKeys is the key=value schema of the -faults flag, in the order
// Config.String emits it; kvspec parses and formats by it. A key's value
// syntax follows its field's type: a float64 is a probability in [0, 1];
// a sim.Duration uses Go syntax ("200us"); wire.dir is 0 (both), 1 or 2;
// wire.dropn is a semicolon-separated 1-based ordinal list ("1;5;9").
var specKeys = kvspec.Schema[Config]{Name: "faults", Sep: ',', Fields: []kvspec.Field[Config]{
	{Key: "pcie.drop", Ptr: func(c *Config) any { return &c.PCIeDrop }, Max: 1},
	{Key: "pcie.corrupt", Ptr: func(c *Config) any { return &c.PCIeCorrupt }, Max: 1},
	{Key: "flap.every", Ptr: func(c *Config) any { return &c.FlapEvery }},
	{Key: "flap.for", Ptr: func(c *Config) any { return &c.FlapFor }},
	{Key: "db.loss", Ptr: func(c *Config) any { return &c.DoorbellLoss }, Max: 1},
	{Key: "wqe.fail", Ptr: func(c *Config) any { return &c.WQEFetchFail }, Max: 1},
	{Key: "cqe.err", Ptr: func(c *Config) any { return &c.CQEErr }, Max: 1},
	{Key: "accel.stall", Ptr: func(c *Config) any { return &c.AccelStall }, Max: 1},
	{Key: "wire.loss", Ptr: func(c *Config) any { return &c.WireLoss }, Max: 1},
	{Key: "wire.dup", Ptr: func(c *Config) any { return &c.WireDup }, Max: 1},
	{Key: "wire.delay", Ptr: func(c *Config) any { return &c.WireDelay }, Max: 1},
	{Key: "wire.delayby", Ptr: func(c *Config) any { return &c.WireDelayBy }},
	{Key: "wire.dir", Ptr: func(c *Config) any { return &c.WireDir }, Max: 2},
	{Key: "wire.dropn", Ptr: func(c *Config) any { return &c.WireDropNth }, Min: 1, Max: math.Inf(1)},
	{Key: "fld.reset.every", Ptr: func(c *Config) any { return &c.FLDResetEvery }},
	{Key: "fld.reset.for", Ptr: func(c *Config) any { return &c.FLDResetFor }},
	{Key: "nic.flr.every", Ptr: func(c *Config) any { return &c.NICFLREvery }},
	{Key: "nic.flr.for", Ptr: func(c *Config) any { return &c.NICFLRFor }},
	{Key: "node.crash.every", Ptr: func(c *Config) any { return &c.NodeCrashEvery }},
	{Key: "node.crash.for", Ptr: func(c *Config) any { return &c.NodeCrashFor }},
	{Key: "drv.crash.every", Ptr: func(c *Config) any { return &c.DrvCrashEvery }},
	{Key: "drv.crash.for", Ptr: func(c *Config) any { return &c.DrvCrashFor }},
	{Key: "sw.reboot.every", Ptr: func(c *Config) any { return &c.SwRebootEvery }},
	{Key: "sw.reboot.for", Ptr: func(c *Config) any { return &c.SwRebootFor }},
	{Key: "part.every", Ptr: func(c *Config) any { return &c.PartEvery }},
	{Key: "part.for", Ptr: func(c *Config) any { return &c.PartFor }},
	{Key: "start", Ptr: func(c *Config) any { return &c.Start }},
	{Key: "stop", Ptr: func(c *Config) any { return &c.Stop }},
}}

// ParseSpec parses a fault specification for the -faults flag: either a
// preset name ("light", "heavy", "crash") or comma-separated key=value
// pairs, optionally starting from a preset ("light,wire.loss=0.1": the
// pairs override what the preset set). specKeys lists the keys and their
// value syntax.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	first, rest, _ := strings.Cut(spec, ",")
	if first = strings.TrimSpace(first); first != "" && !strings.Contains(first, "=") {
		pre, ok := Presets[first]
		if !ok {
			return cfg, fmt.Errorf("faults: unknown preset %q", first)
		}
		cfg, spec = pre, rest
	}
	return cfg, specKeys.Parse(spec, &cfg)
}

// String serializes the config as a ParseSpec-compatible key=value spec:
// ParseSpec(cfg.String()) reproduces cfg exactly (the round trip is
// fuzzed). Zero-valued classes are omitted; the zero config renders as
// the empty string.
func (c Config) String() string { return specKeys.Format(&c) }
