package nic

// DropReason enumerates every reason the NIC model can drop a packet,
// WQE or doorbell. Each reason is both the key into Counters.Drops and
// the telemetry counter name under `drops/<reason>`, so every drop site
// is observable by construction (see TestDropReasonsHaveCounters).
//
// The underlying type is string so existing string-literal map lookups
// in tests and experiments keep working, but production code must use
// the constants: `go vet`-style grep for `drop("` should only ever hit
// this file.
type DropReason string

const (
	// Doorbell decoding.
	DropDoorbellUnknownSQ DropReason = "doorbell-unknown-sq"
	DropDoorbellBadSize   DropReason = "doorbell-bad-size"
	DropDoorbellUnknownRQ DropReason = "doorbell-unknown-rq"
	DropDoorbellInjected  DropReason = "doorbell-injected-loss"

	// Receive path.
	DropRQBadDesc   DropReason = "rq-bad-desc"
	DropRQOverflow  DropReason = "rq-overflow"
	DropRQNoBuffers DropReason = "rq-no-buffers"
	DropRxTooBig    DropReason = "rx-too-big"
	DropRQError     DropReason = "rq-error-state"

	// Send path.
	DropSQError DropReason = "sq-error-state"

	// Failure domains: traffic and MMIO hitting a crashed device, and
	// work that died with it.
	DropDeviceDown DropReason = "device-down"

	// RDMA transport.
	DropQPNotConnected DropReason = "qp-not-connected"
	DropRDMATimeout    DropReason = "rdma-timeout-retransmit"
	DropRDMAUnknownQPN DropReason = "rdma-unknown-qpn"
	DropRDMAOutOfOrder DropReason = "rdma-out-of-order"
	DropRDMAStaleEpoch DropReason = "rdma-stale-epoch"
	DropQPError        DropReason = "qp-error-state"

	// eSwitch steering.
	DropESwitchMiss      DropReason = "eswitch-miss"
	DropPolicer          DropReason = "policer"
	DropDecapFailed      DropReason = "decap-failed"
	DropRuleDrop         DropReason = "rule-drop"
	DropNoSuchVPort      DropReason = "no-such-vport"
	DropCrossDomain      DropReason = "cross-domain"
	DropNoDisposition    DropReason = "rule-no-disposition"
	DropTableLoop        DropReason = "table-loop"
	DropNoWire           DropReason = "no-wire"
	DropWireInjectedLoss DropReason = "wire-injected-loss"
)

// AllDropReasons lists every enumerated drop reason, for tests that
// assert the reason↔counter mapping is total.
var AllDropReasons = []DropReason{
	DropDoorbellUnknownSQ, DropDoorbellBadSize, DropDoorbellUnknownRQ,
	DropDoorbellInjected,
	DropRQBadDesc, DropRQOverflow, DropRQNoBuffers, DropRxTooBig, DropRQError,
	DropSQError, DropDeviceDown,
	DropQPNotConnected, DropRDMATimeout, DropRDMAUnknownQPN,
	DropRDMAOutOfOrder, DropRDMAStaleEpoch, DropQPError,
	DropESwitchMiss, DropPolicer, DropDecapFailed,
	DropRuleDrop, DropNoSuchVPort, DropCrossDomain, DropNoDisposition,
	DropTableLoop, DropNoWire, DropWireInjectedLoss,
}
