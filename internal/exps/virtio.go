package exps

import (
	"flexdriver"
	"flexdriver/internal/fld"
	"flexdriver/internal/fldvirtio"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/virtio"
)

// VirtioEchoGoodput measures the echo goodput of an AFU behind the
// FLD-for-virtio adapter (§6 portability path) at one frame size.
func VirtioEchoGoodput(size int, offeredGbps float64, window flexdriver.Duration) float64 {
	eng := flexdriver.NewEngine()

	// Client host with a virtio NIC and software driver.
	fabA := pcie.NewFabric(eng)
	memA := hostmem.New("client-mem", 1<<26)
	fabA.Attach(memA, pcie.Gen3x8())
	devA := virtio.NewNetDevice("client-vnic", eng, virtio.DefaultNetDeviceParams())
	devA.AttachPCIe(fabA, pcie.Gen3x8())
	client := virtio.NewSoftDriver(eng, fabA, memA, devA, 256, 2048)

	// Server: virtio NIC driven by the FLD adapter, echo AFU.
	fabB := pcie.NewFabric(eng)
	devB := virtio.NewNetDevice("server-vnic", eng, virtio.DefaultNetDeviceParams())
	devB.AttachPCIe(fabB, pcie.Gen3x8())
	cfg := fldvirtio.DefaultConfig()
	cfg.QueueSize = 256
	ad := fldvirtio.New(eng, cfg)
	ad.AttachPCIe(fabB, pcie.Gen3x8())
	ad.BindDevice(devB)
	ad.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) {
		ad.Send(data, md)
	}))
	virtio.ConnectLink(devA, devB, 25*flexdriver.Gbps, 500*flexdriver.Nanosecond)

	var rxBytes int64
	client.OnReceive = func(f []byte) { rxBytes += int64(len(f)) }
	frame := make([]byte, size)
	return goodput(eng, pointWarmup, window, float64(size), offeredGbps,
		func() { client.Send(frame) }, func() int64 { return rxBytes })
}

// Portability compares the same echo AFU over the two NIC contracts: the
// ConnectX-class path with full offloads vs the standardized virtio path
// (§6). Both should carry line-rate-class traffic; the virtio path's cost
// is features, not correctness.
func Portability(window flexdriver.Duration) *Result {
	r := &Result{ID: "ext-virtio", Title: "Portability: same AFU over ConnectX-class vs virtio (§6)"}
	r.Columns = []string{"NIC contract", "size", "achieved Gbps", "offloads"}
	const size = 1024
	cx := EchoBandwidth(FLDERemote, []int{size}, window)[0].AchievedGbps
	vio := VirtioEchoGoodput(size, 26.5, window)
	r.AddRow("ConnectX-class (WQE rings)", d0(size), f2(cx), "RDMA, VXLAN, RSS, QoS, IPSec")
	r.AddRow("virtio (split virtqueues)", d0(size), f2(vio), "none (standardized, portable)")
	r.Check("virtio path carries line-rate-class traffic", 20, vio, "Gbps", vio > 18, "")
	r.Check("ConnectX path at line rate", 24.5, cx, "Gbps", cx > 23, "")
	return r
}
