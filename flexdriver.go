// Package flexdriver is a faithful, simulation-based reproduction of
// "FlexDriver: A Network Driver for Your Accelerator" (Eran et al.,
// ASPLOS 2022) — an on-accelerator hardware module that runs a commodity
// NIC's data-plane driver over peer-to-peer PCIe, letting accelerators use
// NIC offloads (RDMA, VXLAN decapsulation, RSS, flow steering, traffic
// shaping) with no CPU on the data path.
//
// The package is the public facade: it builds simulated testbeds (hosts,
// ConnectX-class NICs, Innova-2-style NIC+FPGA nodes) and re-exports the
// FlexDriver module, its software control plane, and the paper's three
// example accelerators. Everything underneath is implemented from scratch
// in this repository:
//
//   - internal/sim      — deterministic discrete-event engine
//   - internal/pcie     — TLP-accurate PCIe fabric model
//   - internal/nic      — ConnectX-like NIC (queues, eSwitch, RDMA, QoS)
//   - internal/fld      — the FlexDriver hardware module itself
//   - internal/fldsw    — FLD runtime library, FLD-E / FLD-R control planes
//   - internal/swdriver — CPU poll-mode driver baseline
//   - internal/accel/*  — ZUC cipher, IP defragmentation, IoT token
//     authentication, and echo accelerators
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package flexdriver

import (
	"flexdriver/internal/ctrlplane"
	"flexdriver/internal/faults"
	"flexdriver/internal/fld"
	"flexdriver/internal/fldsw"
	"flexdriver/internal/nic"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/telemetry"
)

// Re-exported core types: these give downstream users public names for
// the types that cross the facade boundary.
type (
	// Engine is the discrete-event simulation engine all components
	// schedule on.
	Engine = sim.Engine
	// Time and Duration are virtual time in picoseconds.
	Time     = sim.Time
	Duration = sim.Duration
	// BitRate is bits per second.
	BitRate = sim.BitRate

	// FLDConfig sizes a FlexDriver instance.
	FLDConfig = fld.Config
	// FLD is the FlexDriver hardware module.
	FLD = fld.FLD
	// Metadata rides alongside packets on the FLD-accelerator stream.
	Metadata = fld.Metadata
	// Handler is the accelerator-side receive interface.
	Handler = fld.Handler
	// HandlerFunc adapts a function to Handler.
	HandlerFunc = fld.HandlerFunc

	// Runtime is the FLD software control plane.
	Runtime = fldsw.Runtime
	// EControlPlane is the FLD-E match-action extension API.
	EControlPlane = fldsw.EControlPlane
	// AccelerateSpec describes an FLD-E acceleration detour.
	AccelerateSpec = fldsw.AccelerateSpec
	// RServer is the FLD-R connection server.
	RServer = fldsw.RServer

	// NIC is the ConnectX-class adapter model.
	NIC = nic.NIC
	// NICParams are the NIC's timing constants.
	NICParams = nic.Params
	// Match and Rule program the NIC's match-action tables.
	Match = nic.Match
	Rule  = nic.Rule
	// Action is a rule's packet treatment.
	Action = nic.Action
	// Wire is a point-to-point Ethernet cable.
	Wire = nic.Wire
	// VF is an SR-IOV-style virtual function: a quota'd, domain-isolated
	// slice of the NIC handed to one tenant. Create through NIC.CreateVF
	// or, declaratively, through the tenancy control plane.
	VF = nic.VF
	// VFConfig and VFQuota size a virtual function.
	VFConfig = nic.VFConfig
	VFQuota  = nic.VFQuota

	// TenancySpec is the versioned desired state of a node's tenants;
	// TenantSpec is one tenant's slice of it. Apply with Cluster.Apply
	// or TenantManager.Apply.
	TenancySpec = ctrlplane.Spec
	TenantSpec  = ctrlplane.Tenant
	// Reconciler converges one node onto a TenancySpec via drain →
	// reconfigure → undrain steps with seeded backoff.
	Reconciler = ctrlplane.Reconciler

	// DriverParams tune the CPU software-driver baseline.
	DriverParams = swdriver.Params
	// Driver is the host software driver.
	Driver = swdriver.Driver
	// EthPort is a software raw-Ethernet queue set.
	EthPort = swdriver.EthPort
	// RDMAEndpoint is a software verbs-style endpoint.
	RDMAEndpoint = swdriver.RDMAEndpoint
	// RDMAConfig sizes an RDMAEndpoint.
	RDMAConfig = swdriver.RDMAConfig
	// Supervisor is the driver's crash-recovery escalation ladder
	// (poll → queue reset → FLR → reattach) with seeded
	// backoff and MTTR telemetry; build one with NewSupervisor.
	Supervisor = swdriver.Supervisor

	// LinkConfig describes a PCIe link.
	LinkConfig = pcie.LinkConfig

	// FaultPlan is a seeded deterministic fault-injection plan; build
	// one with NewFaultPlan and pass it to testbeds via WithFaults.
	FaultPlan = faults.Plan
	// FaultsConfig selects fault classes and rates for a FaultPlan.
	FaultsConfig = faults.Config
	// FaultCounts tallies injected faults per class.
	FaultCounts = faults.Counts

	// Registry is the hierarchical telemetry registry (counters,
	// gauges, histograms, and the TLP flight recorder).
	Registry = telemetry.Registry
	// TelemetryScope is a path prefix inside a Registry.
	TelemetryScope = telemetry.Scope
	// Snapshot is a point-in-time copy of every registered metric;
	// Diff/Rate turn two snapshots into interval rates.
	Snapshot = telemetry.Snapshot
	// Counter, Gauge and Histogram are the registry's metric handles.
	Counter   = telemetry.Counter
	Gauge     = telemetry.Gauge
	Histogram = telemetry.Histogram
	// Recorder is the bounded TLP flight recorder; its events export as
	// Chrome trace_event JSON via WriteChromeTrace.
	Recorder = telemetry.Recorder
	// TLPEvent is one recorded PCIe transaction.
	TLPEvent = telemetry.TLPEvent
)

// Common rates and durations, re-exported for callers of the facade.
const (
	Gbps        = sim.Gbps
	Mbps        = sim.Mbps
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRegistry returns an empty telemetry registry; pass it to testbed
// constructors with WithTelemetry to instrument every layer.
func NewRegistry() *Registry { return telemetry.New() }

// DefaultFLDConfig is the Innova-2 prototype configuration (paper §6).
func DefaultFLDConfig() FLDConfig { return fld.DefaultConfig() }

// DefaultNICParams returns ConnectX-5-calibrated NIC constants.
func DefaultNICParams() NICParams { return nic.DefaultParams() }

// NewSupervisor builds the recovery escalation ladder for a driver; the
// seed feeds only the retry-backoff jitter stream. Kick it from a
// watchdog (for clusters, a Control sweep) whenever health should be
// checked.
func NewSupervisor(d *Driver, seed int64) *Supervisor { return swdriver.NewSupervisor(d, seed) }

// Gen3x8 is the Innova-2's internal PCIe link configuration.
func Gen3x8() LinkConfig { return pcie.Gen3x8() }

// NewFaultPlan builds a fault-injection plan whose every probabilistic
// decision derives from seed — identical runs replay identical faults.
func NewFaultPlan(seed int64, cfg FaultsConfig) *FaultPlan { return faults.NewPlan(seed, cfg) }

// ParseFaultSpec parses a -faults CLI specification (a preset name such
// as "light"/"heavy" or key=value pairs; see internal/faults.ParseSpec).
func ParseFaultSpec(spec string) (FaultsConfig, error) { return faults.ParseSpec(spec) }

// NewEControlPlane builds the FLD-E control plane over a runtime.
func NewEControlPlane(rt *Runtime) *EControlPlane { return fldsw.NewEControlPlane(rt) }

// NewRServer builds the FLD-R connection server over a runtime.
func NewRServer(rt *Runtime) *RServer { return fldsw.NewRServer(rt) }

// ConnectRDMA dials an FLD-R service with the client library, returning a
// connected verbs-style endpoint bound to a fresh FLD QP on the server.
func ConnectRDMA(client *Driver, server *RServer, service string, cfg RDMAConfig) (*RDMAEndpoint, error) {
	return fldsw.Connect(client, server, service, cfg)
}

// NewTokenBucket builds a rate limiter for policing/shaping rules.
func NewTokenBucket(eng *Engine, rate BitRate, burstBytes int) *sim.TokenBucket {
	return sim.NewTokenBucket(eng, rate, burstBytes)
}

// TokenBucket is the shaper/policer type used in match-action rules.
type TokenBucket = sim.TokenBucket
