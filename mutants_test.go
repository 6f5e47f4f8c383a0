//go:build mutants

// The kill table runs itself: every row of testdata/mutants.tsv is a
// one-line sed mutant of one file, and the test its row names must fail
// on it, with the row's message in the output, within 30 s. Run it with
//
//	go test -tags mutants -run TestKillTable -timeout 60m .
//
// and one row with -run 'TestKillTable/<id>$'. The module is copied to a
// temporary directory once; each row edits its file there, runs
// `go test -count=1 -run '^<killer>$' <packages>`, and restores the file.
// A row whose killer is "-" is an equivalent mutant: its packages must
// still pass.
package flexdriver_test

import (
	"bufio"
	"bytes"
	"context"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mutant is one row of testdata/mutants.tsv.
type mutant struct {
	id, file, expr string
	pkgs           []string
	killer, msg    string
}

func readMutants(t *testing.T) []mutant {
	f, err := os.Open("testdata/mutants.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c := strings.Split(line, "\t")
		if len(c) != 6 {
			t.Fatalf("mutants.tsv:%d: %d columns, want 6 (id, file, sed, packages, killer, message)", n, len(c))
		}
		rows = append(rows, mutant{c[0], c[1], c[2], strings.Fields(c[3]), c[4], c[5]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// copyModule copies the module at the working directory into dst,
// without version control or build output.
func copyModule(t *testing.T, dst string) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "perf") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, path), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, path), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKillTable(t *testing.T) {
	rows := readMutants(t)
	dir := t.TempDir()
	copyModule(t, dir)
	for _, m := range rows {
		t.Run(m.id, func(t *testing.T) {
			path := filepath.Join(dir, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sed := exec.Command("sed", "-e", m.expr)
			sed.Stdin = bytes.NewReader(orig)
			mutated, err := sed.Output()
			if err != nil {
				t.Fatalf("sed %q: %v", m.expr, err)
			}
			if bytes.Equal(mutated, orig) {
				t.Fatalf("sed %q changes nothing in %s", m.expr, m.file)
			}
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Errorf("restoring %s: %v", m.file, err)
				}
			})

			args := []string{"test", "-count=1"}
			if m.killer != "-" {
				args = append(args, "-run", "^"+m.killer+"$")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", append(args, m.pkgs...)...)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			switch {
			case ctx.Err() != nil:
				t.Fatalf("not judged within 30 s:\n%s", out)
			case m.killer == "-":
				if err != nil {
					t.Fatalf("listed as equivalent, but its packages fail:\n%s", out)
				}
			case err == nil:
				t.Fatalf("survives %s:\n%s", m.killer, out)
			case !bytes.Contains(out, []byte("--- FAIL: "+m.killer)):
				t.Fatalf("not killed by %s:\n%s", m.killer, out)
			case !bytes.Contains(out, []byte(m.msg)):
				t.Fatalf("%s failed without %q:\n%s", m.killer, m.msg, out)
			}
		})
	}
}
