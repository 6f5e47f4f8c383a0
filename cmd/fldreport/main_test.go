package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickReportGolden pins the whole -quick report byte for byte: 25
// experiments, 112 checks. It is the only pin on the two-node experiments
// (fig7b/7c, table6, fig8a/8b, defrag, iot-*, mixed-trace, ext-virtio),
// which otherwise stand behind threshold checks alone. The simulation is
// deterministic, so any diff is a behaviour change: recapture with
// `go run ./cmd/fldreport -quick > cmd/fldreport/testdata/quick.golden`
// only when the change is meant to move results, and say so.
func TestQuickReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if status := run([]string{"-quick"}, &got); status != 0 {
		t.Fatalf("run(-quick) = %d, want 0", status)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d differs\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("report has %d lines, golden %d", len(g), len(w))
}

// TestCSVAndFlagErrors covers the surface folded in from the two retired
// binaries: the model sweeps keep their header and row count, and bad
// flag values exit 2 without running anything.
func TestCSVAndFlagErrors(t *testing.T) {
	for fig, wantLines := range map[string]int{"fig4": 43, "fig7a": 37} {
		var out bytes.Buffer
		if status := run([]string{"-csv", fig}, &out); status != 0 {
			t.Fatalf("-csv %s: status %d", fig, status)
		}
		if n := strings.Count(out.String(), "\n"); n != wantLines {
			t.Errorf("-csv %s: %d lines, want %d", fig, n, wantLines)
		}
	}
	for _, args := range [][]string{
		{"-csv", "fig9"}, {"-sizes", "64,x"}, {"-clients", "0"}, {"-exp", "nope"}, {"-workers", "2"},
		{"-exp", "scenario", "-count", "0"}, {"-exp", "scenario", "-count", "-3"},
		{"-exp", "cluster", "-hosts", "-1", "-clients", "2"}, {"-exp", "table6", "-samples", "-5"},
	} {
		var out bytes.Buffer
		if status := run(args, &out); status != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with %d bytes of output, want 2 and none", args, status, out.Len())
		}
	}
	// A -spec the parser refuses is a failed check that names the key.
	var out bytes.Buffer
	if status := run([]string{"-exp", "scenario", "-spec", "rdma=banana"}, &out); status != 1 ||
		!strings.Contains(out.String(), "scenario: bad value for rdma") {
		t.Errorf("-spec rdma=banana: status %d, output %q; want 1 and the key named", status, out.String())
	}
}

// TestListNamesEachExperiment holds -list to what each experiment's
// Result.Title says it measures: every id maps to one word of its title,
// which its one-liner must carry.
func TestListNamesEachExperiment(t *testing.T) {
	var out bytes.Buffer
	if status := run([]string{"-list"}, &out); status != 0 {
		t.Fatalf("-list: status %d", status)
	}
	about := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			about[f[0]] = strings.Join(f[1:], " ")
		}
	}
	for id, word := range map[string]string{
		"table1": "architectures", "table2": "memory", "table3": "memory", "table4": "LoC",
		"table5": "area", "fig4": "memory", "fig7a": "model", "fig8a": "ZUC", "fig8b": "ZUC",
		"mixed-trace": "forwarding", "iot-isolation": "tenant",
	} {
		if !strings.Contains(about[id], word) {
			t.Errorf("-list describes %s as %q; its title is about %q", id, about[id], word)
		}
	}
}

// TestCISmokeCommandsExitZero runs the -quick command lines ci.yml
// smokes, so a check that cannot pass on one of them (a saturation
// comparison on a one-point sweep, say) fails here and not only in CI.
func TestCISmokeCommandsExitZero(t *testing.T) {
	for _, cmd := range []string{
		"-exp chaos -seed 1 -faults heavy -quick",
		"-exp chaos -seed 1 -faults crash -quick",
		"-exp failover -quick",
		"-exp tenancy -quick",
		"-exp cluster -clients 1,2 -quick",
		"-exp cluster -clients 256 -hosts 128 -quick",
		"-exp kvserve -quick",
	} {
		var out bytes.Buffer
		if status := run(strings.Fields(cmd), &out); status != 0 {
			t.Errorf("fldreport %s = %d, want 0\n%s", cmd, status, out.String())
		}
	}
}
