package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// repSpec selects one rep: what a child process is asked to run.
type repSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Workers  int     `json:"workers"`
	Colocate bool    `json:"colocate,omitempty"`
	// Traced turns on generator self-time spans; Profile, when set, is
	// where the child writes a CPU profile of its run section.
	Traced  bool   `json:"traced,omitempty"`
	Profile string `json:"-"`
}

// repResult is one rep's measurements: the meter's host-side numbers
// plus the workload's deterministic outcome. Host times are in
// reference seconds (refclock.go) unless named wall.
type repResult struct {
	repSpec
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`      // the run section
	RunWallS   float64 `json:"run_wall_s"` // the run section as the wall clock read it
	HostSpeed  float64 `json:"host_speed"` // reference ÷ measured kernel time over the run section; 1 = reference box
	LiveHeapMB float64 `json:"live_heap_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	outcome
	Spans []span `json:"spans"`
	// Hung marks a rep the parent killed at the hang deadline; every op
	// it attempted counts as failed.
	Hung bool `json:"hung,omitempty"`
}

// clean reports a rep with no failed op and every own check passed.
func (r *repResult) clean() bool {
	if r.Hung || r.Failed != 0 || r.Attempted == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// profileHz is the CPU-profile sampling rate asked of the traced rep
// (the reference box delivers about half of it).
const profileHz = 500

// A rep whose set-up is cheap times it again after everything else is
// measured — a 1 ms build read once is mostly noise — by building and
// dropping the topology up to setupRepeats times or until setupBudget
// reference seconds are spent; a set-up that already takes the budget is
// not repeated. The rep reports the median.
const (
	setupRepeats = 14
	setupBudget  = 0.040 // s
)

// runRep executes one rep in this process: one build, one run, the
// process's peak RSS, and only then the extra set-up samples, so the
// heap and ru_maxrss are those of a single topology.
func runRep(spec repSpec) (repResult, error) {
	w := findWorkload(spec.Workload)
	if w == nil {
		return repResult{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	res := repResult{repSpec: spec}
	cfg := runConfig{Seed: spec.Seed, Scale: spec.Scale, Workers: spec.Workers, Colocate: spec.Colocate}
	m := newMeter(spec.Traced, spec.Scale)
	var err error
	if spec.Profile != "" {
		res.outcome, err = profiled(spec.Profile, func() outcome { return w.run(cfg, m) })
		if err != nil {
			return res, err
		}
	} else {
		res.outcome = w.run(cfg, m)
	}
	res.RunS, res.RunWallS, res.HostSpeed = m.runS, m.runWallS, 1/m.ref.slowdown()
	res.LiveHeapMB, res.Mallocs, res.AllocBytes = m.liveHeapMB, m.mallocs, m.allocBytes
	res.Spans = m.spans
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	setups := []float64{m.setupS}
	for spent := m.setupS; spent < setupBudget && len(setups) <= setupRepeats; {
		dry := newMeter(false, spec.Scale)
		dry.setupOnly = true
		w.run(cfg, dry)
		setups = append(setups, dry.setupS)
		spent += dry.setupS
	}
	res.SetupS = summarize(setups).Median
	return res, nil
}

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func() outcome) (outcome, error) {
	f, err := os.Create(path)
	if err != nil {
		return outcome{}, fmt.Errorf("create cpu profile: %w", err)
	}
	// StartCPUProfile always asks for 100 Hz; setting the rate first
	// makes its own request a no-op (it logs one line to stderr) and
	// keeps ours.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return outcome{}, fmt.Errorf("start cpu profile: %w", err)
	}
	o := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return o, fmt.Errorf("write cpu profile: %w", err)
	}
	return o, nil
}

// childMain is the re-exec'd entry: run one rep, print it as one JSON
// line. A fresh process per rep gives each a clean heap and its own
// ru_maxrss.
func childMain(spec repSpec) int {
	res, err := runRep(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	return 0
}

// errHung reports a child killed at its hang deadline.
var errHung = errors.New("child exceeded its hang deadline")

// spawnRep runs one rep in a fresh child process and returns its result.
// The parent kills a child that outlives deadline (10× its expected
// time, see hangDeadline); the rep then comes back Hung with errHung,
// and the caller counts its ops as failed and exits non-zero.
func spawnRep(spec repSpec, deadline time.Duration) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, fmt.Errorf("locate own binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	args := []string{"-child", "-workload", spec.Workload,
		"-seed", strconv.FormatInt(spec.Seed, 10),
		"-scale", strconv.FormatFloat(spec.Scale, 'g', -1, 64),
		"-workers", strconv.Itoa(spec.Workers)}
	if spec.Colocate {
		args = append(args, "-colocate")
	}
	if spec.Traced {
		args = append(args, "-traced")
	}
	if spec.Profile != "" {
		args = append(args, "-cpuprofile", spec.Profile)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run() // waits for the child (killed or not) to be reaped
	forwardStderr(errOut.Bytes())
	if ctx.Err() != nil {
		return repResult{repSpec: spec, Hung: true}, fmt.Errorf("%s seed %d after %v: %w",
			spec.Workload, spec.Seed, deadline, errHung)
	}
	if err != nil {
		return repResult{repSpec: spec}, fmt.Errorf("child %s: %w", spec.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return repResult{repSpec: spec}, fmt.Errorf("child %s: decode result: %w", spec.Workload, err)
	}
	return res, nil
}

// forwardStderr relays a child's standard error, minus the one line the
// runtime prints when runRep pins the profiling rate (see profileHz).
func forwardStderr(b []byte) {
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if !bytes.Contains(line, []byte("cannot set cpu profile rate")) {
			os.Stderr.Write(line)
		}
	}
}
