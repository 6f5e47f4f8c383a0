// Portability (paper §6): the same echo accelerator — written once
// against the fld.Handler contract — runs behind (a) a ConnectX-class NIC
// with the full FlexDriver module, and (b) a plain virtio-net device with
// the FLD virtio adapter. "An accelerator using FlexDriver for a
// virtio-compatible NIC will work with any compliant NIC."
package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/fld"
	"flexdriver/internal/fldvirtio"
	"flexdriver/internal/hostmem"
	"flexdriver/internal/pcie"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/virtio"
)

// echoAFU is the accelerator, written once.
func echoAFU(send func([]byte, fld.Metadata) error, echoed *int) fld.Handler {
	return fld.HandlerFunc(func(data []byte, md fld.Metadata) {
		if send(data, md) == nil {
			*echoed++
		}
	})
}

func overConnectX(n int) (echoed, received int) {
	rp := flexdriver.NewRemotePair()
	srv := rp.Server
	srv.RT.StartEth()
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: srv.RT.RQ()}})
	srv.FLD.SetHandler(echoAFU(func(d []byte, md fld.Metadata) error {
		return srv.FLD.Send(0, d, md)
	}, &echoed))

	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 128, RxEntries: 128})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	port.OnReceive = func([]byte, swdriver.RxMeta) { received++ }
	frame := make([]byte, 512)
	frame[12], frame[13] = 0x08, 0x00
	for i := 0; i < n; i++ {
		port.Send(frame)
	}
	rp.Run()
	return
}

func overVirtio(n int) (echoed, received int) {
	eng := flexdriver.NewEngine()
	// Client host with a virtio NIC.
	fabA := pcie.NewFabric(eng)
	memA := hostmem.New("client-mem", 1<<26)
	fabA.Attach(memA, pcie.Gen3x8())
	devA := virtio.NewNetDevice("client-vnic", eng, virtio.DefaultNetDeviceParams())
	devA.AttachPCIe(fabA, pcie.Gen3x8())
	client := virtio.NewSoftDriver(eng, fabA, memA, devA, 64, 2048)

	// Server: any compliant virtio NIC, driven by the FLD adapter.
	fabB := pcie.NewFabric(eng)
	devB := virtio.NewNetDevice("server-vnic", eng, virtio.DefaultNetDeviceParams())
	devB.AttachPCIe(fabB, pcie.Gen3x8())
	ad := fldvirtio.New(eng, fldvirtio.DefaultConfig())
	ad.AttachPCIe(fabB, pcie.Gen3x8())
	ad.BindDevice(devB)
	ad.SetHandler(echoAFU(func(d []byte, md fld.Metadata) error {
		return ad.Send(d, md)
	}, &echoed))

	virtio.ConnectLink(devA, devB, 25*flexdriver.Gbps, 500*flexdriver.Nanosecond)
	client.OnReceive = func([]byte) { received++ }
	frame := make([]byte, 512)
	for i := 0; i < n; i++ {
		client.Send(frame)
	}
	eng.Run()
	return
}

func main() {
	const n = 200
	e1, r1 := overConnectX(n)
	fmt.Printf("ConnectX-class NIC + FlexDriver: echoed %d/%d, received %d/%d\n", e1, n, r1, n)
	fmt.Println("  (full offloads available: RDMA, VXLAN, RSS, shaping)")
	e2, r2 := overVirtio(n)
	fmt.Printf("virtio-net device + FLD adapter: echoed %d/%d, received %d/%d\n", e2, n, r2, n)
	fmt.Println("  (standardized interface: works with any compliant NIC, fewer offloads)")
	fmt.Println("same accelerator code, two NIC contracts — the §6 portability claim.")
}
