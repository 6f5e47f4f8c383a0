//go:build !race

package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// reportBlocks splits report text into its experiment blocks, keyed by
// the id of each "== id: title ==" header: the header and every line up
// to the next blank one.
func reportBlocks(text string) map[string]string {
	blocks := map[string]string{}
	var id string
	var cur []string
	flush := func() {
		if id != "" {
			blocks[id] = strings.Join(cur, "\n")
		}
		id, cur = "", nil
	}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			flush()
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
			cur = []string{line}
		case line == "":
			flush()
		case id != "":
			cur = append(cur, line)
		}
	}
	flush()
	return blocks
}

// TestFullReportMatchesExperiments pins the full (non-quick) report: every
// block EXPERIMENTS.md shows under "Full report output" must be the block
// `go run ./cmd/fldreport` prints, byte for byte. It is the only pin on
// the full-length runs, the cluster sweep's 8-client point among them.
// It takes a few seconds plain and is left out of race builds.
func TestFullReportMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full report")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, shown, ok := strings.Cut(string(doc), "## Full report output\n\n```\n")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Full report output" block`)
	}
	shown, _, _ = strings.Cut(shown, "\n```")
	var out bytes.Buffer
	if status := run(nil, &out); status != 0 {
		t.Fatalf("full run = %d, want 0", status)
	}
	got, want := reportBlocks(out.String()), reportBlocks(shown)
	if len(want) < 10 {
		t.Fatalf("found only %d blocks in EXPERIMENTS.md", len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok {
			t.Errorf("EXPERIMENTS.md shows %s, which the full run does not print", id)
		} else if g != w {
			t.Errorf("%s differs from EXPERIMENTS.md\n got:\n%s\nwant:\n%s", id, g, w)
		}
	}
}
