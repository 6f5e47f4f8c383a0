package fldvirtio_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"flexdriver/internal/exps"
	"flexdriver/internal/fld"
	"flexdriver/internal/fldvirtio"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
	"flexdriver/internal/virtio"
)

// echoLoad runs n frames of size bytes, one every gap (0: back to back at
// t = 0), from a client SoftDriver over the cable into a device driven by
// the Adapter, whose AFU echoes them back, and prints everything the path
// can be observed by: the instants of the last delivery and of quiescence,
// every PCIe port's wire bytes on both fabrics, and all counters.
func echoLoad(qsize, n, size int, gap sim.Duration) string {
	eng := sim.NewEngine()
	fabA := pcie.NewFabric(eng)
	memA := hostmem.New("client-mem", 1<<26)
	fabA.Attach(memA, pcie.Gen3x8())
	devA := virtio.NewNetDevice("client-vnic", eng, virtio.DefaultNetDeviceParams())
	devA.AttachPCIe(fabA, pcie.Gen3x8())
	client := virtio.NewSoftDriver(eng, fabA, memA, devA, qsize, 2048)

	fabB := pcie.NewFabric(eng)
	devB := virtio.NewNetDevice("server-vnic", eng, virtio.DefaultNetDeviceParams())
	devB.AttachPCIe(fabB, pcie.Gen3x8())
	cfg := fldvirtio.DefaultConfig()
	cfg.QueueSize = qsize
	ad := fldvirtio.New(eng, cfg)
	ad.AttachPCIe(fabB, pcie.Gen3x8())
	ad.BindDevice(devB)
	ad.SetHandler(fld.HandlerFunc(func(data []byte, md fld.Metadata) { ad.Send(data, md) }))
	link := virtio.ConnectLink(devA, devB, 25*sim.Gbps, 500*sim.Nanosecond)

	var got int
	var last sim.Time
	client.OnReceive = func(f []byte) {
		if len(f) == size {
			got++
		}
		last = eng.Now()
	}
	frame := make([]byte, size)
	for i := range frame {
		frame[i] = byte(i)
	}
	if gap == 0 {
		for i := 0; i < n; i++ {
			client.Send(frame)
		}
	} else {
		rig.OpenLoop(eng, 0, sim.Time(n)*gap, 1, rig.Every(gap), func() { client.Send(frame) })
	}
	eng.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "got=%d last=%d idle=%d", got, int64(last), int64(eng.Now()))
	for _, fab := range []*pcie.Fabric{fabA, fabB} {
		for _, p := range fab.Ports() {
			fmt.Fprintf(&b, " %s=%d/%d", p.Device().PCIeName(), p.UpBytes, p.DownBytes)
		}
	}
	fmt.Fprintf(&b, " adapter=%d/%d/%d/%d", ad.TxPackets, ad.RxPackets, ad.CreditStalls, ad.Credits())
	for _, d := range []*virtio.NetDevice{devA, devB} {
		fmt.Fprintf(&b, " %s=%d/%d", d.Name, d.TxPackets, d.RxPackets)
		reasons := make([]string, 0, len(d.Drops))
		for r := range d.Drops {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(&b, ",%s:%d", r, d.Drops[r])
		}
	}
	fmt.Fprintf(&b, " cable=%v/%v/%v", link.Sent, link.Delivered, link.Lost)
	return b.String()
}

// TestPortabilityPathPinned holds the virtio path to the picosecond and
// the byte. The literals were captured at commit 941e070, before the
// driver side of the virtqueue was written once (virtio.DriverQueue) and
// the stage events fused; a refactor of either package that moves one of
// them changed behaviour, not just structure.
func TestPortabilityPathPinned(t *testing.T) {
	for _, tc := range []struct {
		qsize, n, size int
		gap            sim.Duration
		want           string
	}{
		{64, 400, 300, 0,
			"got=400 last=51362515 idle=52058794 client-mem=191604/217304 client-vnic=217304/191604 server-vnic=217472/191748 fld-virtio=191748/217472 adapter=400/400/0/64 client-vnic=400/400 server-vnic=400/400 cable=[400 400]/[400 400]/[0 0]"},
		{64, 400, 1500, 0,
			"got=400 last=214993645 idle=215628362 client-mem=706136/757664 client-vnic=757664/706136 server-vnic=757880/706328 fld-virtio=706328/757880 adapter=400/400/0/64 client-vnic=400/400 server-vnic=400/400 cable=[400 400]/[400 400]/[0 0]"},
		{256, 3000, 1024, 310 * sim.Nanosecond,
			"got=3000 last=1021612323 idle=1022248076 client-mem=3734588/4024440 client-vnic=4024440/3734588 server-vnic=4027296/3737220 fld-virtio=3737220/4027296 adapter=3000/3000/0/256 client-vnic=3000/3000 server-vnic=3000/3000 cable=[3000 3000]/[3000 3000]/[0 0]"},
		// 40 ns is faster than the echo drains: the adapter runs out of
		// transmit credits 235 times and drops those echoes.
		{64, 2000, 64, 40 * sim.Nanosecond,
			"got=1765 last=87775489 idle=88498102 client-mem=425754/522058 client-vnic=522058/425754 server-vnic=537458/406306 fld-virtio=406306/537458 adapter=1765/2000/235/64 client-vnic=2000/1765 server-vnic=1765/2000 cable=[2000 1765]/[2000 1765]/[0 0]"},
	} {
		if got := echoLoad(tc.qsize, tc.n, tc.size, tc.gap); got != tc.want {
			t.Errorf("%d x %d B every %v, %d-entry rings:\n got %s\nwant %s", tc.n, tc.size, tc.gap, tc.qsize, got, tc.want)
		}
	}
	for _, tc := range []struct {
		size int
		want string
	}{{64, "12.247040"}, {512, "24.125440"}, {1024, "24.616960"}, {1500, "24.060000"}} {
		if got := fmt.Sprintf("%.6f", exps.VirtioEchoGoodput(tc.size, 26.5, 200*sim.Microsecond)); got != tc.want {
			t.Errorf("VirtioEchoGoodput(%d B) = %s Gbps, want %s", tc.size, got, tc.want)
		}
	}
}
