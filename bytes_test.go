package flexdriver

import (
	"runtime"
	"testing"

	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/sim"
)

// TestAllocsPerZuc4KOp pins the byte ledger of DESIGN.md "Simulator
// performance": what one 4 KiB encrypt costs the host allocator end to end
// — cryptodev client, RC endpoint, both NICs, the wire, FLD-R and the
// 8-lane ZUC AFU, the shape of the benchmark's zuc4k_rdma workload at a
// load the lanes keep up with. With each hop of the payload path copying
// a byte once into one buffer and the queues between hops reusing their
// arrays, an op costs 29.9 allocations and 39.5 KB (110.4 and 101.2 KB
// before that rule); the bounds leave room for batching jitter, not for a
// hop to start staging its payload twice again.
func TestAllocsPerZuc4KOp(t *testing.T) {
	const (
		size     = 4096
		every    = 2500 * sim.Nanosecond
		warm     = 150 // every ring slot and receive buffer touched once: host-memory pages exist
		measured = 400
		maxPer   = 34.0
		maxBytes = 42_000.0
	)
	rp := NewRemotePair()
	rsrv := NewRServer(rp.Server.RT)
	rsrv.Listen("zuc")
	rp.Server.RT.Start()
	afu := zuc.NewAFU(rp.Server.FLD, rp.Engine(), 8, zuc.DefaultLaneParams())
	afu.QueueFor = rsrv.QueueFor
	ep, err := ConnectRDMA(rp.Client.Drv, rsrv, "zuc", RDMAConfig{SendEntries: 64, RecvEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	cd := zuc.NewCryptodev(rp.Engine(), ep)

	data := make([]byte, size)
	done, wrong := 0, 0
	ops := make([]zuc.Op, warm+measured)
	onDone := func(o *zuc.Op) {
		done++
		if len(o.Result) != size {
			wrong++
		}
	}
	eng := rp.Engine()
	sent := 0
	var tick func(any)
	tick = func(any) {
		if sent == len(ops) {
			return
		}
		ops[sent] = zuc.Op{Op: zuc.OpEncrypt, Key: [16]byte{1, 2, 3}, Count: uint32(sent), Data: data, Done: onDone}
		cd.Enqueue(&ops[sent])
		sent++
		eng.AfterArg(every, tick, nil)
	}
	eng.AfterArg(every, tick, nil)

	rp.RunUntil(warm * every)
	warmDone := done
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rp.Run()
	runtime.ReadMemStats(&after)

	n := done - warmDone
	if done != len(ops) || wrong != 0 || afu.Bad != 0 || afu.Dropped != 0 || n < measured {
		t.Fatalf("%d of %d ops completed (%d wrong-length, afu bad=%d dropped=%d, %d measured); the run must be lossless to price an op",
			done, len(ops), wrong, afu.Bad, afu.Dropped, n)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d ops: %.1f allocations and %.0f B allocated per 4 KiB op", n, per, bytes)
	if per > maxPer {
		t.Errorf("%.1f allocations per 4 KiB op, want <= %.0f", per, maxPer)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f B allocated per 4 KiB op, want <= %.0f", bytes, maxBytes)
	}
}
