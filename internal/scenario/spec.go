// Package scenario is the testbed's randomized-but-deterministic
// exploration harness: one integer seed expands into a full cluster
// scenario — topology (hosts, FLD cores, switch rates and queue depths),
// workload mix (Poisson or bursty clients, frame-size ranges, Ethernet
// vs. VXLAN data paths, an optional RDMA sidecar) and a fault plan — the
// scenario runs to quiescence, and a set of global invariants is checked
// against the telemetry tree. Because everything derives from the seed,
// any violation replays exactly; the Shrink pass then bisects the fault
// plan and scales the topology and workload down to a minimal spec whose
// one-line repro command reproduces the violation deterministically.
//
// The package is the paper-reproduction analogue of FoundationDB-style
// simulation testing: instead of a handful of hand-picked experiments,
// the whole configuration space of the testbed is sampled under fault
// injection, with conservation-style invariants (no ghost frames, no
// unaccounted loss, CQE/WQE matching, buffer-pool balance, engine
// quiescence, replay determinism) standing in for correctness.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"flexdriver/internal/faults"
	"flexdriver/internal/kvspec"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// Spec is one fully expanded scenario. All fields are plain values so a
// Spec round-trips through String/Parse and embeds into a one-line repro
// command.
type Spec struct {
	// Seed drives every random choice of the run: the clients' arrival
	// processes and the fault plan's Bernoulli stream. (The topology and
	// workload fields below are themselves derived from a seed by
	// Generate, but once expanded they travel explicitly so a shrunk
	// spec stays self-contained.)
	Seed int64

	// --- topology ---
	Clients     int // echo clients racked behind the ToR switch (1..3)
	FLDCores    int // FLD cores on the server's FPGA behind RSS (1, 2 or 4)
	RateGbps    int // switch per-port line rate
	QueueFrames int // switch output-queue bound, frames

	// --- workload ---
	Pattern            string  // "poisson" or "bursty" client arrivals
	FrameMin, FrameMax int     // UDP frame sizes sampled per flow, bytes
	PerClientGbps      float64 // offered load per client
	WindowUs           int     // measurement window, microseconds
	Path               string  // "eth" or "vxlan" (decap on the server NIC)
	RDMA               bool    // add an RDMA host pair on the same switch

	// --- multi-tenancy ---
	// Tenants > 0 replaces the flat server data path with the managed
	// control plane: the server's FLD cores and NIC queues are carved
	// into Tenants isolated VFs (one core each, DRR weights alternating
	// 1/2), clients are steered to tenants round-robin by destination
	// port, and a zero-tolerance leakage invariant checks every echo
	// reply came back from the client's own tenant. 0 keeps the legacy
	// single-tenant path and every pre-tenancy seed byte-identical.
	Tenants int
	// Reconfig applies a version-2 spec (DRR weights flipped) mid-window
	// while traffic and faults are live; the tenancy-converged invariant
	// then requires the reconciler to have reached version 2.
	Reconfig bool

	// --- hundred-node scale ---
	// AggClients > 0 switches the workload to flow-level client
	// aggregation: AggClients modeled open-loop clients fold onto
	// AggHosts AggregatedClients sources (one host each) instead of one
	// discrete host per client, so a 2048-client scenario costs
	// O(frames), not O(clients). Clients is ignored in this mode (it
	// keeps its drawn value so shrinking back to the discrete path
	// yields a valid spec). Conservation bookkeeping moves to host
	// granularity: the send ordinal spans every client a host carries.
	// Drawn on its own seed stream, only for single-tenant scenarios,
	// so every pre-aggregation seed keeps a byte-identical spec.
	AggHosts   int
	AggClients int

	// --- TCP offload / RPC serving ---
	// Proto selects the client framing on the plain Ethernet path: ""
	// keeps the historical UDP echo, "tcp" sends TCP-framed frames
	// through the same header-swapping echo (the port words sit at the
	// UDP offsets, so the swap is framing-blind), and "rpc" runs the
	// key-value AFU (internal/accel/kv) on every server core with
	// TCP-framed RPC GET/PUT requests, conservation riding the RPC
	// correlation ID. Any Proto also adds a TCP host pair running the
	// reliable byte-stream transport (internal/tcp) through the same
	// switch and fault plan — the RDMA sidecar's TCP counterpart. Drawn
	// on its own seed stream (pre-existing seeds keep byte-identical
	// specs); excludes vxlan and tenants, which own the same steering
	// table and stamp offsets.
	Proto string

	// PlantAckDropNth plants the dropped-ack defect on the TCP sidecar:
	// after N pure-ack segments have reached the sending endpoint, every
	// further one is silently discarded, so the connection stalls, burns
	// its retry budget and flushes queued messages — the stalled-
	// connection loss the tcp-delivery invariant must catch. Requires
	// Proto. 0 disables it.
	PlantAckDropNth int64

	// PlantLossNth is a test-only defect injector: every Nth frame
	// delivered to a client is silently discarded *before* the
	// bookkeeping sees it — a modeled "drop without a drop reason" that
	// the frame-conservation invariant must catch. 0 disables it. It is
	// part of the spec so a shrunk repro still plants the same bug.
	PlantLossNth int64

	// PlantLeakNth plants a cross-tenant leak: tenant T0's echo path
	// rewrites every Nth reply's UDP source port to T1's port, which the
	// zero-tolerance tenant-leak invariant must catch. Requires at least
	// two tenants. 0 disables it.
	PlantLeakNth int64

	// Faults is a faults.ParseSpec specification ("" injects nothing).
	// Run confines the probabilistic window to the measurement window.
	Faults string

	// Workers is ignored: Run steps the one engine on the caller.
	//
	// Deprecated: bench/ is the only writer; ROADMAP 1(a)'s benchmark-only PR deletes it.
	Workers int
}

// Generate expands a seed into a scenario. The mapping is pure: the same
// seed always yields the same Spec, so `-seed N` alone reproduces any
// generated scenario.
func Generate(seed int64) Spec {
	rng := sim.NewRand(seed ^ 0x5ce4a210)
	sizes := []int{64, 128, 256, 512, 1024}
	s := Spec{
		Seed:        seed,
		Clients:     1 + rng.Intn(3),
		FLDCores:    []int{1, 2, 4}[rng.Intn(3)],
		RateGbps:    []int{10, 25, 40}[rng.Intn(3)],
		QueueFrames: []int{16, 32, 64, 128}[rng.Intn(4)],
		Pattern:     []string{"poisson", "bursty"}[rng.Intn(2)],
		WindowUs:    30 + rng.Intn(51),
		Path:        []string{"eth", "vxlan"}[rng.Intn(2)],
		RDMA:        rng.Intn(10) < 3,
	}
	lo := rng.Intn(len(sizes))
	hi := lo + rng.Intn(len(sizes)-lo)
	s.FrameMin, s.FrameMax = sizes[lo], sizes[hi]

	// Offered load stays under ~60% of the server port (the echo doubles
	// it on the same link), so a fault-free scenario is drop-free and the
	// conservation invariant has zero slack.
	cap := float64(s.RateGbps)
	if cap > 25 {
		cap = 25
	}
	per := 0.6 * cap / float64(s.Clients) * (0.3 + 0.7*rng.Float64())
	s.PerClientGbps = float64(int(per*10)) / 10
	if s.PerClientGbps < 0.5 {
		s.PerClientGbps = 0.5
	}

	s.Faults = genFaults(rng)

	// Multi-tenancy draws come from their own stream so adding the
	// feature left every pre-tenancy field of every seed untouched (the
	// golden telemetry pins depend on that). Roughly one scenario in
	// three runs the managed control plane; half of those reconfigure
	// mid-window. VXLAN decap rules and tenant steering both own the
	// server NIC's table 0, so tenant scenarios pin the plain Ethernet
	// path.
	trng := sim.NewRand(seed ^ 0x58d10b3e)
	if trng.Intn(3) == 0 {
		s.Tenants = 2 + trng.Intn(2)
		s.Reconfig = trng.Intn(2) == 0
		s.Path = "eth"
		// One core per tenant; FLDCores states the total actually built.
		s.FLDCores = s.Tenants
	}

	// Hundred-node scale draws own a third stream for the same reason the
	// tenancy draws own a second: seeds that stay discrete keep their
	// byte-identical specs and golden telemetry. Roughly a quarter of the
	// single-tenant scenarios widen to an aggregated topology — up to 64
	// hosts folding up to 2048 modeled clients — with per-client load
	// rescaled so the *total* offered load keeps the discrete draw's
	// drop-free envelope: frame volume stays O(window × rate) however
	// many clients fold in.
	arng := sim.NewRand(seed ^ 0x17a9b300)
	if s.Tenants == 0 && arng.Intn(4) == 0 {
		s.AggHosts = []int{2, 4, 8, 16, 32, 64}[arng.Intn(6)]
		s.AggClients = s.AggHosts * []int{2, 4, 8, 16, 32}[arng.Intn(5)]
		s.AggClients = min(s.AggClients, 2048)
		per := s.PerClientGbps * float64(s.Clients) / float64(s.AggClients)
		s.PerClientGbps = float64(int(per*1e5)) / 1e5
		if s.PerClientGbps < 1e-5 {
			s.PerClientGbps = 1e-5
		}
	}

	// TCP/RPC serving draws own a fourth stream, again so every earlier
	// seed keeps its byte-identical spec (the golden pins depend on it).
	// Roughly a quarter of the plain-Ethernet single-tenant scenarios
	// trade UDP framing for the TCP data path — half of those raw
	// TCP-framed echo, half the RPC key-value servers — and gain the TCP
	// sidecar pair alongside.
	prng := sim.NewRand(seed ^ 0x2fd4e1c3)
	if s.Tenants == 0 && s.Path == "eth" && prng.Intn(4) == 0 {
		s.Proto = []string{"tcp", "rpc"}[prng.Intn(2)]
	}
	return s
}

// genFaults samples a fault plan: one scenario in four runs clean, the
// rest enable a random subset of classes at rates the recovery paths are
// known to absorb (the chaos experiment's regime).
func genFaults(rng *sim.Rand) string {
	if rng.Intn(4) == 0 {
		return ""
	}
	var cfg faults.Config
	pick := func(max float64) float64 {
		// Two-digit precision keeps the spec short and round-trippable.
		return float64(int(rng.Float64()*max*1000)) / 1000
	}
	if rng.Intn(3) > 0 {
		cfg.WireLoss = pick(0.03)
	}
	if rng.Intn(3) > 0 {
		cfg.WireDup = pick(0.02)
	}
	if rng.Intn(3) > 0 {
		cfg.WireDelay = pick(0.03)
	}
	if rng.Intn(2) == 0 {
		cfg.PCIeDrop = pick(0.01)
		cfg.PCIeCorrupt = pick(0.005)
	}
	if rng.Intn(2) == 0 {
		cfg.DoorbellLoss = pick(0.05)
		cfg.WQEFetchFail = pick(0.01)
		cfg.CQEErr = pick(0.01)
	}
	if rng.Intn(3) == 0 {
		cfg.AccelStall = pick(0.02)
	}
	if rng.Intn(5) == 0 {
		cfg.FlapEvery = 40 * sim.Microsecond
		cfg.FlapFor = sim.Duration(1+rng.Intn(2)) * sim.Microsecond
	}

	// Failure domains: device/node crash–restart schedules, rarer than
	// the byte-level classes. Downtime stays well under the drain phase
	// so the supervision ladder and the runtime watchdog can absorb every
	// episode before the invariants are judged; windows shorter than the
	// period simply yield no episode (harmless).
	every := func() sim.Duration { return sim.Duration(30+10*rng.Intn(4)) * sim.Microsecond }
	down := func() sim.Duration { return sim.Duration(2+rng.Intn(7)) * sim.Microsecond }
	if rng.Intn(6) == 0 {
		cfg.FLDResetEvery, cfg.FLDResetFor = every(), down()
	}
	if rng.Intn(6) == 0 {
		cfg.NICFLREvery, cfg.NICFLRFor = every(), down()
	}
	if rng.Intn(8) == 0 {
		cfg.NodeCrashEvery, cfg.NodeCrashFor = every(), down()
	}
	if rng.Intn(6) == 0 {
		cfg.DrvCrashEvery, cfg.DrvCrashFor = every(), down()
	}
	if rng.Intn(8) == 0 {
		cfg.SwRebootEvery, cfg.SwRebootFor = every(), down()
	}
	if rng.Intn(8) == 0 {
		cfg.PartEvery, cfg.PartFor = every(), down()
	}
	return cfg.String()
}

// specKeys is the scenario spec's schema, in the order String emits it;
// the ranges are the ones Run supports, so a hand-edited spec fails
// loudly instead of building a degenerate cluster. The first ten keys
// are always written; the rest only when set.
var specKeys = kvspec.Schema[Spec]{Name: "scenario", Sep: ' ', Fields: []kvspec.Field[Spec]{
	{Key: "seed", Ptr: func(s *Spec) any { return &s.Seed }, Always: true},
	{Key: "clients", Ptr: func(s *Spec) any { return &s.Clients }, Min: 1, Max: 8, Always: true},
	{Key: "cores", Ptr: func(s *Spec) any { return &s.FLDCores }, Min: 1, Max: 8, Always: true},
	{Key: "rate", Ptr: func(s *Spec) any { return &s.RateGbps }, Min: 1, Max: 100, Always: true},
	{Key: "queue", Ptr: func(s *Spec) any { return &s.QueueFrames }, Min: 1, Max: 4096, Always: true},
	{Key: "pattern", Ptr: func(s *Spec) any { return &s.Pattern }, Enum: []string{"poisson", "bursty"}, Always: true},
	{Key: "frames", Ptr: func(s *Spec) any { return frameRange{&s.FrameMin, &s.FrameMax} }, Always: true},
	// (0, 100]: the smallest positive float stands for the open end.
	{Key: "gbps", Ptr: func(s *Spec) any { return &s.PerClientGbps }, Min: math.SmallestNonzeroFloat64, Max: 100, Always: true},
	{Key: "window", Ptr: func(s *Spec) any { return &s.WindowUs }, Min: 5, Max: 1000, Always: true},
	{Key: "path", Ptr: func(s *Spec) any { return &s.Path }, Enum: []string{"eth", "vxlan"}, Always: true},
	{Key: "rdma", Ptr: func(s *Spec) any { return &s.RDMA }},
	{Key: "hosts", Ptr: func(s *Spec) any { return &s.AggHosts }, Min: 1, Max: 64},
	{Key: "aggclients", Ptr: func(s *Spec) any { return &s.AggClients }, Min: 1, Max: 2048},
	{Key: "proto", Ptr: func(s *Spec) any { return &s.Proto }, Enum: []string{"tcp", "rpc"}},
	{Key: "plantackdrop", Ptr: func(s *Spec) any { return &s.PlantAckDropNth }, Max: math.Inf(1)},
	{Key: "tenants", Ptr: func(s *Spec) any { return &s.Tenants }, Min: 2, Max: 4},
	{Key: "reconfig", Ptr: func(s *Spec) any { return &s.Reconfig }},
	{Key: "plant", Ptr: func(s *Spec) any { return &s.PlantLossNth }, Max: math.Inf(1)},
	{Key: "plantleak", Ptr: func(s *Spec) any { return &s.PlantLeakNth }, Max: math.Inf(1)},
	{Key: "faults", Ptr: func(s *Spec) any { return (*faultSpec)(&s.Faults) }},
}}

// frameRange is the frames=min:max value; a frame fills at most one
// client-port buffer.
type frameRange struct{ min, max *int }

func (r frameRange) Set(val string) (err error) {
	lo, hi, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want min:max")
	}
	if *r.min, err = kvspec.Int(lo, 64, swdriver.DefaultBufBytes); err != nil {
		return err
	}
	if *r.max, err = kvspec.Int(hi, 64, swdriver.DefaultBufBytes); err != nil {
		return err
	}
	if *r.max < *r.min {
		return fmt.Errorf("max %d below min %d", *r.max, *r.min)
	}
	return nil
}

func (r frameRange) String() string {
	return strconv.Itoa(*r.min) + ":" + strconv.Itoa(*r.max)
}

// faultSpec is the faults= value: a fault spec kept as written, so the
// repro line carries it verbatim, once faults.ParseSpec has accepted it.
type faultSpec string

func (f *faultSpec) Set(val string) error {
	if _, err := faults.ParseSpec(val); err != nil {
		return err
	}
	*f = faultSpec(val)
	return nil
}

func (f *faultSpec) String() string { return string(*f) }

// String serializes the spec as space-separated key=value fields, the
// textual form Parse accepts and ReproCommand embeds. No value contains
// a space (the fault spec is comma/semicolon-structured), so the format
// survives shell quoting as a single argument.
func (s Spec) String() string { return specKeys.Format(&s) }

// ReproCommand returns the one-line command that replays this exact
// scenario (and its invariant checking) from a shell.
func (s Spec) ReproCommand() string {
	return fmt.Sprintf("fldreport -exp scenario -seed %d -spec %q", s.Seed, s.String())
}

// Parse decodes a String-serialized spec; keys it does not give keep
// the defaults below.
func Parse(text string) (Spec, error) {
	s := Spec{
		Clients: 1, FLDCores: 1, RateGbps: 25, QueueFrames: 64,
		Pattern: "poisson", FrameMin: 64, FrameMax: 64,
		PerClientGbps: 1, WindowUs: 50, Path: "eth",
	}
	if err := specKeys.Parse(text, &s); err != nil {
		return s, err
	}
	// Cross-field constraints (fields arrive in any order, so they are
	// judged once all are in).
	if s.Tenants > 0 && s.Path == "vxlan" {
		return s, fmt.Errorf("scenario: tenants and vxlan both steer via the server NIC's table 0; use path=eth")
	}
	// A client port drops a frame beyond its buffer as a transmit error no
	// budget excuses; frameRange.Set bounds frames, and vxlan wraps them.
	if s.Path == "vxlan" && s.FrameMax+vxlanOuter > swdriver.DefaultBufBytes {
		return s, fmt.Errorf("scenario: path=vxlan frames above %d B overflow the %d B client buffer", swdriver.DefaultBufBytes-vxlanOuter, swdriver.DefaultBufBytes)
	}
	if s.Reconfig && s.Tenants == 0 {
		return s, fmt.Errorf("scenario: reconfig=1 needs tenants")
	}
	if s.PlantLeakNth > 0 && s.Tenants < 2 {
		return s, fmt.Errorf("scenario: plantleak needs at least two tenants")
	}
	if (s.AggHosts > 0) != (s.AggClients > 0) {
		return s, fmt.Errorf("scenario: hosts and aggclients come together")
	}
	if s.AggClients > 0 && s.AggClients < s.AggHosts {
		return s, fmt.Errorf("scenario: aggclients %d below hosts %d", s.AggClients, s.AggHosts)
	}
	if s.AggClients > 0 && s.Tenants > 0 {
		return s, fmt.Errorf("scenario: aggregated clients and tenants are mutually exclusive")
	}
	if s.Proto != "" && s.Path != "eth" {
		return s, fmt.Errorf("scenario: proto=%s frames the plain Ethernet path; use path=eth", s.Proto)
	}
	if s.Proto != "" && s.Tenants > 0 {
		return s, fmt.Errorf("scenario: proto and tenants are mutually exclusive")
	}
	if s.PlantAckDropNth > 0 && s.Proto == "" {
		return s, fmt.Errorf("scenario: plantackdrop needs proto")
	}
	return s, nil
}
