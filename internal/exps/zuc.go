package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rig"
	"flexdriver/internal/stats"
)

// zucBed builds the §7 disaggregated-cipher topology: client cryptodev
// driver over FLD-R to an 8-lane ZUC AFU.
func zucBed() (*flexdriver.RemotePair, *zuc.Cryptodev) {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()))
	rsrv := flexdriver.NewRServer(rp.Server.RT)
	rsrv.Listen("zuc")
	rp.Server.RT.Start()
	afu := zuc.NewAFU(rp.Server.FLD, rp.Engine(), zuc.Lanes, zuc.DefaultLaneParams())
	afu.QueueFor = rsrv.QueueFor
	ep, err := flexdriver.ConnectRDMA(rp.Client.Drv, rsrv, "zuc",
		flexdriver.RDMAConfig{SendEntries: 512, RecvEntries: 128})
	if err != nil {
		panic(err)
	}
	return rp, zuc.NewCryptodev(rp.Engine(), ep)
}

// zucThroughputAt measures the remote accelerator's encryption goodput at
// one request size.
func zucThroughputAt(size int, window flexdriver.Duration) float64 {
	rp, cd := zucBed()
	key := [16]byte{1, 2, 3}
	data := make([]byte, size)
	var doneBytes int64
	done := func(*zuc.Op) { doneBytes += int64(size) }
	count := uint32(0)
	offered := 1.05 * perfmodel.DefaultZucModel().Goodput(size)
	return goodput(rp.Engine(), pointWarmup, window, float64(size), offered, func() {
		count++
		cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: count, Data: data, Done: done})
	}, func() int64 { return doneBytes })
}

// zucCPUThroughputAt measures the local software driver at one size.
func zucCPUThroughputAt(size int, window flexdriver.Duration) float64 {
	eng := flexdriver.NewEngine()
	sc := zuc.NewSoftCryptodev(eng)
	key := [16]byte{1, 2, 3}
	data := make([]byte, size)
	var doneBytes int64
	measuring := false
	// Closed-ish loop: keep the core saturated with a small queue.
	var submit func()
	inflight := 0
	submit = func() {
		for inflight < 4 {
			inflight++
			sc.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: 1, Data: data,
				Done: func(*zuc.Op) {
					inflight--
					if measuring {
						doneBytes += int64(size)
					}
					submit()
				}})
		}
	}
	submit()
	rig.Window(eng, 20*flexdriver.Microsecond, window, pointDrain, func(open bool) { measuring = open })
	return gbps(doneBytes, window)
}

// Fig8a reproduces the ZUC encryption throughput comparison.
func Fig8a(sizes []int, window flexdriver.Duration) *Result {
	r := &Result{ID: "fig8a", Title: "Disaggregated ZUC throughput vs request size"}
	r.Columns = []string{"size", "model Gbps", "FLD Gbps", "CPU Gbps", "FLD/CPU"}
	var at512 []float64
	for _, s := range sizes {
		model := perfmodel.DefaultZucModel().Goodput(s)
		fld, cpu := zucThroughputAt(s, window), zucCPUThroughputAt(s, window)
		r.AddRow(d0(s), f2(model), f2(fld), f2(cpu), f2(fld/cpu))
		// Paper: >= 512 B requests reach 17.6 Gbps = 89% of the model's
		// expectation and 4x the CPU.
		if s >= 512 {
			r.Check(fmt.Sprintf("FLD fraction of model @%dB", s), 0.89, fld/model, "", fld/model > 0.80, "")
			r.Check(fmt.Sprintf("FLD/CPU speedup @%dB", s), 4, fld/cpu, "x", fld/cpu > 3 && fld/cpu < 6, "")
		}
		if s == 512 {
			at512 = append(at512, fld)
		}
	}
	for _, fld := range at512 {
		r.Check("FLD throughput @512B", 17.6, fld, "Gbps", within(fld, 17.6, 0.15), "")
	}
	return r
}

// Fig8b reproduces the ZUC latency-vs-bandwidth comparison: the
// disaggregated accelerator is not faster at low load, but frees the CPU.
func Fig8b(fractions []float64, perPoint int) *Result {
	r := &Result{ID: "fig8b", Title: "ZUC latency vs load (512 B requests)"}
	r.Columns = []string{"engine", "offered Gbps", "achieved Gbps", "median us", "p99 us"}
	const size = 512
	model := perfmodel.DefaultZucModel().Goodput(size)

	var fldLow, cpuLow float64
	for _, frac := range fractions {
		offered := frac * model
		med, p99, ach := zucLatencyAtLoad(size, offered, perPoint)
		if fldLow == 0 {
			fldLow = med
		}
		r.AddRow("FLD remote", f2(offered), f2(ach), f2(med), f2(p99))
	}
	// CPU baseline at low load (latency of a local software op).
	cpuLow = zucCPULatency(size, perPoint)
	r.AddRow("CPU local", "-", "-", f2(cpuLow), "-")
	r.Check("remote not faster at low load", 1, b2f(fldLow > cpuLow), "", fldLow > cpuLow,
		"disaggregation trades latency for pooling and CPU savings")
	return r
}

func zucLatencyAtLoad(size int, offeredGbps float64, samples int) (medianUs, p99Us, achievedGbps float64) {
	rp, cd := zucBed()
	key := [16]byte{9}
	data := make([]byte, size)
	var lat stats.Sample
	var bytes int64
	sent := uint32(0)
	return underLoad(rp, 3, size, offeredGbps, samples, func() {
		sent++
		cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: sent, Data: data,
			Done: func(o *zuc.Op) {
				lat.Add((o.DoneAt - o.SubmittedAt).Microseconds())
				bytes += int64(size)
			}})
	}, &lat, &bytes)
}

// zucCPULatency is the software cipher's op latency, one op in flight:
// the ping-pong's round trip is the op's DoneAt − SubmittedAt.
func zucCPULatency(size int, samples int) float64 {
	eng := flexdriver.NewEngine()
	sc := zuc.NewSoftCryptodev(eng)
	key := [16]byte{9}
	data := make([]byte, size)
	pp := &rig.PingPong{Eng: eng, N: samples}
	count := uint32(0)
	pp.Send = func() {
		sc.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: count, Data: data,
			Done: func(*zuc.Op) { pp.Reply() }})
		count++
	}
	return pp.Run().Median()
}
