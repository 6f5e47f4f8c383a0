package flexdriver

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must resolve.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "ROADMAP.md"}

var (
	spanRe  = regexp.MustCompile("`([^`\n]+)`")
	fileRe  = regexp.MustCompile(`^[A-Za-z][\w./-]*\.go(:(\d+))?$`)
	identRe = regexp.MustCompile(`^(?:\(\*(\w+)\)|(\w+))((?:\.\w+)+)(?:\(.*\))?$`)
	expRe   = regexp.MustCompile(`-exp ([a-z][\w-]*)`)
	runRe   = regexp.MustCompile(`(?m)^\t\t\{"([\w-]+)", "`)
)

// TestDocsReferencesResolve checks every backticked code reference in
// the documents against the tree: a Go file path (`internal/nic/vf.go`,
// `fld/compress.go`, `tenancy.go`, with an optional `:line`) must exist,
// a `pkg.Ident` naming a module package must name a declaration, method
// or field in it, a `Type.Member`, `pkg.Type.Member` or `(*T).M` naming
// a module type must name a method or field of it (promoted ones
// included), and `-exp id` must be an fldreport experiment. A name the code no longer has is a stale reference: fix
// the document, or drop the backticks where it tells the history of a
// name that is gone.
func TestDocsReferencesResolve(t *testing.T) {
	idx := indexModule(t)
	main, err := os.ReadFile("cmd/fldreport/main.go")
	if err != nil {
		t.Fatal(err)
	}
	exps := map[string]bool{}
	for _, m := range runRe.FindAllStringSubmatch(string(main), -1) {
		exps[m[1]] = true
	}
	for _, doc := range docFiles {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range spanRe.FindAllStringSubmatch(line, -1) {
				if why := idx.stale(m[1], exps); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, n, m[1], why)
				}
			}
		}
		f.Close()
	}
}

// moduleIndex is what the module declares, package by package.
type moduleIndex struct {
	files   map[string]int             // slash path → line count
	bases   map[string]bool            // file base names
	pkgs    map[string]map[string]bool // package name → its declarations, methods and fields
	members map[string]map[string]bool // type name → methods and fields
	embeds  map[string][]string        // type name → embedded type names
}

func indexModule(t *testing.T) *moduleIndex {
	idx := &moduleIndex{files: map[string]int{}, bases: map[string]bool{},
		pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.files[filepath.ToSlash(path)] = fset.File(f.Pos()).LineCount()
		idx.bases[filepath.Base(path)] = true
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return nil
		}
		if idx.pkgs[pkg] == nil {
			idx.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			idx.declare(pkg, decl)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func (idx *moduleIndex) member(typ, name string) {
	if idx.members[typ] == nil {
		idx.members[typ] = map[string]bool{}
	}
	idx.members[typ][name] = true
}

func (idx *moduleIndex) declare(pkg string, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			idx.pkgs[pkg][d.Name.Name] = true
			return
		}
		idx.member(typeName(d.Recv.List[0].Type), d.Name.Name)
		idx.pkgs[pkg][d.Name.Name] = true
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, n := range s.Names {
					idx.pkgs[pkg][n.Name] = true
				}
			case *ast.TypeSpec:
				idx.pkgs[pkg][s.Name.Name] = true
				idx.member(s.Name.Name, "") // known, even with no members
				if s.Assign != 0 {
					idx.embeds[s.Name.Name] = append(idx.embeds[s.Name.Name], typeName(s.Type))
				}
				switch ty := s.Type.(type) {
				case *ast.StructType:
					for _, fld := range ty.Fields.List {
						if len(fld.Names) == 0 {
							idx.embeds[s.Name.Name] = append(idx.embeds[s.Name.Name], typeName(fld.Type))
						}
						for _, n := range fld.Names {
							idx.member(s.Name.Name, n.Name)
							idx.pkgs[pkg][n.Name] = true
						}
					}
				case *ast.InterfaceType:
					for _, m := range ty.Methods.List {
						for _, n := range m.Names {
							idx.member(s.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName is the base type name of a receiver, field or alias target:
// pointers, package qualifiers and type arguments stripped.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// hasMember reports whether typ, or a type it embeds, has name.
func (idx *moduleIndex) hasMember(typ, name string, depth int) bool {
	if idx.members[typ][name] {
		return true
	}
	if depth > 4 {
		return false
	}
	for _, e := range idx.embeds[typ] {
		if idx.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

// stale explains why a backticked span names nothing in the tree, or
// returns "" for a span that resolves or is not a code reference.
func (idx *moduleIndex) stale(span string, exps map[string]bool) string {
	for _, m := range expRe.FindAllStringSubmatch(span, -1) {
		if id := m[1]; id != "id" && !exps[id] {
			return "no experiment " + strconv.Quote(id)
		}
	}
	if m := fileRe.FindStringSubmatch(span); m != nil {
		return idx.staleFile(strings.TrimSuffix(span, m[1]), m[2])
	}
	m := identRe.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	head, rest := m[1]+m[2], strings.Split(m[3], ".")[1:]
	if m[1] != "" { // (*T).M
		return idx.staleMember(head, rest[0])
	}
	if names, ok := idx.pkgs[head]; ok && head[0] >= 'a' && head[0] <= 'z' {
		if !names[rest[0]] {
			return "package " + head + " declares no " + rest[0]
		}
		if len(rest) > 1 && idx.members[rest[0]] != nil {
			return idx.staleMember(rest[0], rest[1])
		}
		return ""
	}
	if head[0] >= 'A' && head[0] <= 'Z' && idx.members[head] != nil {
		return idx.staleMember(head, rest[0])
	}
	return ""
}

func (idx *moduleIndex) staleMember(typ, name string) string {
	if idx.members[typ] == nil {
		return "no type " + typ
	}
	if !idx.hasMember(typ, name, 0) {
		return typ + " has no method or field " + name
	}
	return ""
}

func (idx *moduleIndex) staleFile(path, line string) string {
	n, ok := 0, false
	if strings.Contains(path, "/") {
		for _, dir := range []string{"", "internal/", "internal/accel/"} {
			if c, found := idx.files[dir+path]; found {
				n, ok = c, true
				break
			}
		}
	} else if idx.bases[path] {
		if line == "" {
			return ""
		}
		for p, c := range idx.files {
			if filepath.Base(p) == path {
				n, ok = max(n, c), true
			}
		}
	}
	if !ok {
		return "no such file"
	}
	if l, _ := strconv.Atoi(line); line != "" && l > n {
		return "the file has " + strconv.Itoa(n) + " lines"
	}
	return ""
}
