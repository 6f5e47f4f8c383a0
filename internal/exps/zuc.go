package exps

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/zuc"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rig"
	"flexdriver/internal/sim"
	"flexdriver/internal/stats"
)

// zucBed builds the §7 disaggregated-cipher topology: client cryptodev
// driver over FLD-R to an 8-lane ZUC AFU.
func zucBed() (*flexdriver.RemotePair, *zuc.AFU, *zuc.Cryptodev) {
	rp := flexdriver.NewRemotePair(flexdriver.WithDriver(genDriverParams()))
	rsrv := flexdriver.NewRServer(rp.Server.RT)
	rsrv.Listen("zuc")
	rp.Server.RT.Start()
	afu := zuc.NewAFU(rp.Server.FLD, rp.Engine(), 8, zuc.DefaultLaneParams())
	afu.QueueFor = rsrv.QueueFor
	ep, err := flexdriver.ConnectRDMA(rp.Client.Drv, rsrv, "zuc",
		flexdriver.RDMAConfig{SendEntries: 512, RecvEntries: 128})
	if err != nil {
		panic(err)
	}
	return rp, afu, zuc.NewCryptodev(rp.Engine(), ep)
}

// softBaseline returns the CPU cryptodev calibrated to the paper's
// software ZUC driver (~4.4 Gbps at 512 B requests).
func softBaseline(eng *flexdriver.Engine) *zuc.SoftCryptodev {
	sc := zuc.NewSoftCryptodev(eng)
	sc.PerMessage = 80 * flexdriver.Nanosecond
	sc.PerByte = 1636 * 1 // ps
	return sc
}

// ZucPoint is one Figure 8a sample.
type ZucPoint struct {
	Size                        int
	FLDGbps, CPUGbps, ModelGbps float64
}

// zucThroughputAt measures the remote accelerator's encryption goodput at
// one request size.
func zucThroughputAt(size int, window flexdriver.Duration) float64 {
	rp, _, cd := zucBed()
	key := [16]byte{1, 2, 3}
	data := make([]byte, size)

	model := perfmodel.DefaultZucModel().Goodput(size)
	offered := 1.05 * model
	interval := flexdriver.Duration(float64(size*8) / (offered * 1e9) * float64(flexdriver.Second))

	var doneBytes int64
	measuring := false
	count := uint32(0)
	warmup := 150 * flexdriver.Microsecond
	deadline := warmup + window + 150*flexdriver.Microsecond
	rig.OpenLoop(rp.Engine(), 0, deadline, 1, rig.Every(interval), func() {
		count++
		cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: count, Data: data,
			Done: func(o *zuc.Op) {
				if measuring {
					doneBytes += int64(size)
				}
			}})
	})
	rig.Window(rp, warmup, window, deadline-warmup-window, &measuring)
	return float64(doneBytes) * 8 / window.Seconds() / 1e9
}

// zucCPUThroughputAt measures the local software driver at one size.
func zucCPUThroughputAt(size int, window flexdriver.Duration) float64 {
	eng := flexdriver.NewEngine()
	sc := softBaseline(eng)
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
					if eng.Now() < 2*window {
						submit()
					}
				}})
		}
	}
	submit()
	warmup := 20 * flexdriver.Microsecond
	eng.RunUntil(warmup)
	measuring = true
	eng.RunUntil(warmup + window)
	measuring = false
	eng.Run()
	return float64(doneBytes) * 8 / window.Seconds() / 1e9
}

// Fig8a reproduces the ZUC encryption throughput comparison.
func Fig8a(sizes []int, window flexdriver.Duration) *Result {
	r := &Result{ID: "fig8a", Title: "Disaggregated ZUC throughput vs request size"}
	r.Columns = []string{"size", "model Gbps", "FLD Gbps", "CPU Gbps", "FLD/CPU"}
	var pts []ZucPoint
	for _, s := range sizes {
		p := ZucPoint{
			Size:      s,
			ModelGbps: perfmodel.DefaultZucModel().Goodput(s),
			FLDGbps:   zucThroughputAt(s, window),
			CPUGbps:   zucCPUThroughputAt(s, window),
		}
		pts = append(pts, p)
		r.AddRow(d0(p.Size), f2(p.ModelGbps), f2(p.FLDGbps), f2(p.CPUGbps), f2(p.FLDGbps/p.CPUGbps))
	}
	// Paper: >= 512 B requests reach 17.6 Gbps = 89% of the model's
	// expectation and 4x the CPU.
	for _, p := range pts {
		if p.Size < 512 {
			continue
		}
		frac := p.FLDGbps / p.ModelGbps
		r.Check(fmt.Sprintf("FLD fraction of model @%dB", p.Size), 0.89, frac, "", frac > 0.80, "")
		speedup := p.FLDGbps / p.CPUGbps
		r.Check(fmt.Sprintf("FLD/CPU speedup @%dB", p.Size), 4, speedup, "x", speedup > 3 && speedup < 6, "")
	}
	// 512 B absolute throughput.
	for _, p := range pts {
		if p.Size == 512 {
			r.Check("FLD throughput @512B", 17.6, p.FLDGbps, "Gbps", within(p.FLDGbps, 17.6, 0.15), "")
		}
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
	rp, _, cd := zucBed()
	key := [16]byte{9}
	data := make([]byte, size)
	var lat stats.Sample
	var bytes int64
	mean := flexdriver.Duration(float64(size*8) / (offeredGbps * 1e9) * float64(flexdriver.Second))
	rng := sim.NewRand(3)
	sent := 0
	t0 := rp.Engine().Now()
	var tick func()
	tick = func() {
		if sent >= samples {
			return
		}
		sent++
		cd.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: uint32(sent), Data: data,
			Done: func(o *zuc.Op) {
				lat.Add((o.DoneAt - o.SubmittedAt).Microseconds())
				bytes += int64(size)
			}})
		rp.Engine().After(rng.Exp(mean), tick)
	}
	tick()
	rp.Run()
	dur := rp.Engine().Now() - t0
	if dur <= 0 {
		dur = 1
	}
	return lat.Median(), lat.Percentile(99), float64(bytes) * 8 / dur.Seconds() / 1e9
}

func zucCPULatency(size int, samples int) float64 {
	eng := flexdriver.NewEngine()
	sc := softBaseline(eng)
	key := [16]byte{9}
	data := make([]byte, size)
	var lat stats.Sample
	for i := 0; i < samples; i++ {
		sc.Enqueue(&zuc.Op{Op: zuc.OpEncrypt, Key: key, Count: uint32(i), Data: data,
			Done: func(o *zuc.Op) { lat.Add((o.DoneAt - o.SubmittedAt).Microseconds()) }})
		eng.Run()
	}
	return lat.Median()
}
