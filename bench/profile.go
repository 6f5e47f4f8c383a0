package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// layers is the cpu_share.* family: one name per package on (or beside)
// the datapath, plus the runtime split three ways and a catch-all so the
// shares of one profile sum to 100.
var layers = []string{
	"sim", "pcie", "nic", "fld", "fldsw", "swdriver", "ethswitch", "netpkt", "cuckoo",
	"hostmem", "tcp", "rpc", "accel.kv", "accel.zuc", "accel.echo", "telemetry", "faults",
	"scenario", "workload", "bench",
	"runtime.malloc", "runtime.gc", "runtime.other", "other",
}

const modPrefix = "flexdriver/internal/"

// layerOf maps a fully qualified function name, as pprof prints it, to
// its layer. The root package (the facade, workload.go) reports as
// "workload", this benchmark's own package as "bench"; anything outside
// the module — runtime, sort, crypto — is "runtime" here and split by
// the caller.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, modPrefix):
		rest := fn[len(modPrefix):]
		pkg := rest
		// Package path ends at the first '.' after the last '/'.
		slash := strings.LastIndex(rest, "/")
		if dot := strings.Index(rest[slash+1:], "."); dot >= 0 {
			pkg = rest[:slash+1+dot]
		}
		pkg = strings.ReplaceAll(pkg, "/", ".")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "flexdriver."):
		return "workload"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return "runtime"
}

// topLine matches one row of `go tool pprof -top`:
//
//	flat  flat%   sum%        cum   cum%  name
var topLine = regexp.MustCompile(`^\s*\S+\s+([0-9.]+)%\s+[0-9.]+%\s+\S+\s+[0-9.]+%\s+(.+?)(?: \(inline\))?$`)

// aggregateTop folds a `go tool pprof -top` listing into flat-time
// shares (percent of all samples) by layer: a sample belongs to the
// layer of its leaf function.
func aggregateTop(listing string) map[string]float64 {
	shares := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(listing))
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		if !inTable {
			inTable = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		if m := topLine.FindStringSubmatch(line); m != nil {
			pct, err := strconv.ParseFloat(m[1], 64)
			if err == nil {
				shares[layerOf(m[2])] += pct
			}
		}
	}
	return shares
}

// accounted matches pprof's summary line; with a -focus filter its
// percentage is the share of samples whose stack matches.
var accounted = regexp.MustCompile(`Showing nodes accounting for \S+, ([0-9.]+)% of (\S+) total`)

func focusShare(listing string) float64 {
	if m := accounted.FindStringSubmatch(listing); m != nil {
		pct, _ := strconv.ParseFloat(m[1], 64)
		return pct
	}
	return 0
}

// samplesLine matches "Duration: 6.1s, Total samples = 5.9s (96.7%)".
var samplesLine = regexp.MustCompile(`Total samples = ([0-9.]+)(ms|us|s|min)`)

// profileSamples estimates the sample count of a profile from its total
// sampled time at profileHz.
func profileSamples(listing string) float64 {
	m := samplesLine.FindStringSubmatch(listing)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	switch m[2] {
	case "us":
		v /= 1e6
	case "ms":
		v /= 1e3
	case "min":
		v *= 60
	}
	return v * profileHz
}

// Stack filters for the runtime split. Allocation is every sample under
// an allocating entry point; collection is the background workers plus
// the assist an allocation may be drafted into (so it is ignored on the
// allocation side). Samples under the reference kernel (refclock.go) are
// ignored throughout: it is interleaved with the run only to read the
// box's speed.
const (
	focusMalloc = `runtime\.(mallocgc|newobject|newarray|makeslice|growslice|makemap|makechan|concatstrings|slicebytetostring|stringtoslicebyte)$`
	focusGC     = `runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge|gcStart|gcMarkTermination)$`
	ignoreRef   = `main\.refRun$`
)

func pprofTop(profile string, extra ...string) (string, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, extra...)
	out, err := exec.Command("go", append(args, profile)...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -top %s: %w: %s", profile, err, firstLine(string(out)))
	}
	return string(out), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// cpuShares turns a CPU profile into the cpu_share.* family plus the
// number of samples it rests on. pprof states every percentage against
// the whole profile; the shares are restated against the samples outside
// the reference kernel, so they sum to 100 over the simulator's run.
func cpuShares(profile string) (map[string]float64, float64, error) {
	all, err := pprofTop(profile, "-ignore="+ignoreRef)
	if err != nil {
		return nil, 0, err
	}
	mal, err := pprofTop(profile, "-focus="+focusMalloc, "-ignore="+focusGC+"|"+ignoreRef)
	if err != nil {
		return nil, 0, err
	}
	gc, err := pprofTop(profile, "-focus="+focusGC, "-ignore="+ignoreRef)
	if err != nil {
		return nil, 0, err
	}
	kept := focusShare(all) / 100
	if kept <= 0 {
		return nil, 0, fmt.Errorf("cpu profile %s: no samples outside the reference kernel", profile)
	}
	shares := splitRuntime(aggregateTop(all), focusShare(mal), focusShare(gc))
	for k := range shares {
		shares[k] /= kept
	}
	return shares, profileSamples(all) * kept, nil
}

// splitRuntime names the result cpu_share.<layer> and divides the
// runtime leaf share into allocation, collection and the rest (memmove,
// map access, scheduler, and every non-module package).
func splitRuntime(byLayer map[string]float64, malloc, gc float64) map[string]float64 {
	rt := byLayer["runtime"]
	other := rt - malloc - gc
	if other < 0 {
		other = 0
	}
	out := map[string]float64{}
	for _, l := range layers {
		out["cpu_share."+l] = byLayer[l]
	}
	out["cpu_share.runtime.malloc"] = malloc
	out["cpu_share.runtime.gc"] = gc
	out["cpu_share.runtime.other"] = other
	return out
}
