package flexdriver

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusReasons is the fixed vocabulary of testdata/census.tsv (DESIGN
// "Reachability census"); roadmap-N names the open ROADMAP item.
var censusReasons = regexp.MustCompile(`^(failure|safety|interface|bench|oracle|claim-test|roadmap-\d+)$`)

// TestReachabilityCensus holds the census to its list. FLD_CENSUS_PROFILE
// names a text coverage profile (`go tool covdata textfmt`) of fldreport
// and the examples, built with -cover -coverpkg=./... and run the way CI
// runs them. Every function outside examples/ and bench/ in a package a
// program links either ran or is listed in testdata/census.tsv with a
// reason, and no listed function ran: the list shrinks as the code does.
// Without the variable the test skips; CI's census step sets it.
func TestReachabilityCensus(t *testing.T) {
	profile := os.Getenv("FLD_CENSUS_PROFILE")
	if profile == "" {
		t.Skip("FLD_CENSUS_PROFILE is not set (DESIGN \"Reachability census\" says how to make one)")
	}
	unreached := censusUnreached(t, profile)
	listed := censusList(t)
	var missing []string
	for _, fn := range unreached {
		if listed[fn] == "" {
			missing = append(missing, fn)
		}
		delete(listed, fn)
	}
	for _, fn := range missing {
		t.Errorf("unreached and not in testdata/census.tsv: %s (give it a program, a reason, or delete it)", fn)
	}
	for fn := range listed {
		t.Errorf("listed in testdata/census.tsv but reached, or gone: %s (delete the row)", fn)
	}
	t.Logf("%d functions no program runs, each listed with its reason", len(unreached))
}

// censusList reads testdata/census.tsv: file, function, reason, detail.
func censusList(t *testing.T) map[string]string {
	f, err := os.Open("testdata/census.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		col := strings.Split(line, "\t")
		if len(col) != 4 || col[3] == "" || !censusReasons.MatchString(col[2]) {
			t.Errorf("census.tsv:%d: want file, function, a reason from the vocabulary and a detail: %q", n, line)
			continue
		}
		key := col[0] + "\t" + col[1]
		if rows[key] != "" {
			t.Errorf("census.tsv:%d: %s listed twice", n, col[1])
		}
		rows[key] = col[2]
	}
	return rows
}

// censusBlock is one profile block: its extent in the file and whether
// any run executed it.
type censusBlock struct {
	start, end token.Position
	ran        bool
}

var profileLine = regexp.MustCompile(`^flexdriver/(.+):(\d+)\.(\d+),(\d+)\.(\d+) \d+ (\d+)$`)

// censusUnreached returns "file\tfunction" for every function in the
// profile's files, outside examples/ and bench/, none of whose blocks
// ran. A statement-less function has one empty block, counted when it is
// called.
func censusUnreached(t *testing.T, profile string) []string {
	f, err := os.Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks := map[string][]censusBlock{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := profileLine.FindStringSubmatch(sc.Text())
		if m == nil || strings.HasPrefix(m[1], "examples/") || strings.HasPrefix(m[1], "bench/") {
			continue
		}
		n := make([]int, 5)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+2]) // profileLine matched digits
		}
		b := censusBlock{token.Position{Line: n[0], Column: n[1]}, token.Position{Line: n[2], Column: n[3]}, n[4] > 0}
		blocks[m[1]] = append(blocks[m[1]], b)
	}
	if len(blocks) == 0 {
		t.Fatalf("%s holds no profile blocks", profile)
	}
	var out []string
	fset := token.NewFileSet()
	for file, bs := range blocks {
		af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			ran := false
			for _, b := range bs {
				ran = ran || b.ran && !before(b.start, start) && !before(end, b.end)
			}
			if !ran {
				out = append(out, file+"\t"+funcName(fd))
			}
		}
	}
	sort.Strings(out)
	return out
}

func before(a, b token.Position) bool {
	return a.Line < b.Line || a.Line == b.Line && a.Column < b.Column
}

// funcName is Name, or Recv.Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return fmt.Sprintf("%s.%s", typeName(fd.Recv.List[0].Type), fd.Name.Name)
}
