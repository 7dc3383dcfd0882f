package multimap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// declIndex is every name the tree declares: top-level names per
// package and members (methods, struct fields, interface methods) per
// type name, from non-test files; every identifier declared anywhere,
// tests included, which docs may cite too; and the tree's files.
type declIndex struct {
	pkgs    map[string]map[string]bool // package name → top-level names
	members map[string]map[string]bool // type name → member names
	names   map[string]bool            // every declared name, test files included
	files   map[string]bool            // base name of every file in the tree
	topDirs map[string]bool            // the repository's top-level directories
}

func indexTree(t *testing.T) *declIndex {
	t.Helper()
	ix := &declIndex{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		names:   map[string]bool{},
		files:   map[string]bool{},
		topDirs: map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
		ix.names[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if filepath.Dir(path) == "." {
				ix.topDirs[d.Name()] = true
			}
			return nil
		}
		ix.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					ix.names[fn.Name.Name] = true
				}
			}
			return nil
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(ix.pkgs, pkg, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(ix.members, id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(ix.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(ix.pkgs, pkg, spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							for _, n := range fld.Names {
								add(ix.members, spec.Name.Name, n.Name)
							}
							if len(fld.Names) == 0 { // embedded: named by its type
								typ := fld.Type
								if st, ok := typ.(*ast.StarExpr); ok {
									typ = st.X
								}
								switch e := typ.(type) {
								case *ast.Ident:
									add(ix.members, spec.Name.Name, e.Name)
								case *ast.SelectorExpr:
									add(ix.members, spec.Name.Name, e.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var (
	goIdent   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	callArgs  = regexp.MustCompile(`(?s)\(.*\)`)
	fileToken = regexp.MustCompile(`\.(go|golden|md|json|txt|yml|sh)$`)
)

// check reports why tok names nothing in the tree, or "" when it does
// or is not a name this test judges: a repository path must exist; a
// file name must be some file's base name; a pkg.Name, Type.Member or
// pkg.Type.Member must be declared in a non-test file; and, when bare
// is set, a lone exported identifier must be declared somewhere,
// tests included. Anything else — flags, commands, JSON, stdlib names,
// prose — passes unjudged.
func (ix *declIndex) check(tok string, bare bool) string {
	tok = strings.TrimSuffix(callArgs.ReplaceAllString(tok, ""), "()")
	if tok == "" || strings.ContainsAny(tok, " \t\n") {
		return ""
	}
	if dir, _, ok := strings.Cut(tok, "/"); ok {
		if !ix.topDirs[dir] {
			return "" // not a repository path: net/http, application/x-ndjson, …
		}
		if _, err := os.Stat(strings.TrimSuffix(tok, "/")); err != nil {
			return "no such path"
		}
		return ""
	}
	if fileToken.MatchString(tok) {
		if !ix.files[tok] {
			return "no such file"
		}
		return ""
	}
	parts := strings.Split(tok, ".")
	for _, p := range parts {
		if !goIdent.MatchString(p) {
			return ""
		}
	}
	if len(parts) == 1 {
		name := parts[0]
		if !bare || !unicode.IsUpper(rune(name[0])) {
			return ""
		}
		if !ix.names[name] {
			return "not declared"
		}
		return ""
	}
	if pkg, ok := ix.pkgs[parts[0]]; ok {
		if !pkg[parts[1]] {
			return "package " + parts[0] + " declares no " + parts[1]
		}
		parts = parts[1:]
	} else if !unicode.IsUpper(rune(parts[0][0])) {
		return "" // a local variable or a standard-library package
	}
	if len(parts) > 1 && !ix.members[parts[0]][parts[1]] {
		return "type " + parts[0] + " has no member " + parts[1]
	}
	return ""
}

// mmbenchFlags collects the flags cmd/mmbench defines: the first
// argument of every flag.*("name", …) call in its non-test files.
func mmbenchFlags(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("cmd/mmbench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if ok && pkg.Name == "flag" && isLit && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				flags[name] = true
			}
			return true
		})
	}
	return flags
}

// mmbenchExpIDs is what mmbench's -exp accepts: "all" and the
// library's ExperimentIDs.
func mmbenchExpIDs() map[string]bool {
	ids := map[string]bool{"all": true}
	for _, id := range ExperimentIDs() {
		ids[id] = true
	}
	return ids
}

// unknownExpIDs returns the word after each -exp in text that ids lacks.
func unknownExpIDs(text string, ids map[string]bool) []string {
	var out []string
	words := strings.Fields(text)
	for i := 0; i+1 < len(words); i++ {
		if strings.Trim(words[i], "`([") != "-exp" {
			continue
		}
		if id := strings.Trim(words[i+1], "`()[],;:."); !ids[id] {
			out = append(out, id)
		}
	}
	return out
}

// commandFlags returns the flags of every mmbench command line in text.
// A command starts at a word naming the program (mmbench,
// ./cmd/mmbench, …) and runs over the -flag words that follow, each
// with at most one value, up to the first other word or the word that
// closes its code span or clause. "-deadline/-aging" names two flags.
func commandFlags(text string) []string {
	var out []string
	words := strings.Fields(text)
	for i, w := range words {
		if !strings.HasSuffix(strings.TrimSuffix(strings.Trim(w, "`(["), "'s"), "mmbench") {
			continue
		}
		value := false
		for _, w := range words[i+1:] {
			tok, _, _ := strings.Cut(strings.Trim(w, "`()[],;:."), "=")
			switch {
			case len(tok) > 1 && tok[0] == '-' && unicode.IsLetter(rune(tok[1])):
				for _, f := range strings.Split(tok, "/") {
					out = append(out, strings.TrimPrefix(f, "-"))
				}
				value = true
			case value:
				value = false
			default:
				tok = ""
			}
			if tok == "" || strings.ContainsAny(w, "`),;") || strings.HasSuffix(w, ".") {
				break
			}
		}
	}
	return out
}

// TestDocNamesExist holds PAPER.md and the package doc (doc.go) to the
// tree: every backticked token of PAPER.md, and every dotted name and
// path in doc.go's prose, must name something that exists — so deleting
// a declaration or a file the docs cite fails here, not in a reader's
// hands. Every flag of an mmbench command in PAPER.md, doc.go and the
// verify skill's notes must be one cmd/mmbench defines, and every -exp
// id one it runs.
func TestDocNamesExist(t *testing.T) {
	ix := indexTree(t)
	paper, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(string(paper), -1) {
		if why := ix.check(m[1], true); why != "" {
			t.Errorf("PAPER.md: `%s`: %s", m[1], why)
		}
	}

	f, err := parser.ParseFile(token.NewFileSet(), "doc.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range strings.Fields(f.Doc.Text()) {
		word = strings.TrimSuffix(strings.Trim(word, `()[]{},;:"`), "'s")
		word = strings.TrimRight(callArgs.ReplaceAllString(word, ""), ".,;:)")
		toks := []string{word}
		if dir, _, _ := strings.Cut(word, "/"); !ix.topDirs[dir] {
			toks = strings.Split(word, "/") // Store/Session.Flush, Stats.Cancelled/DeadlineExceeded
		}
		for _, tok := range toks {
			if why := ix.check(tok, false); why != "" {
				t.Errorf("doc.go: %s: %s", tok, why)
			}
		}
	}

	skill, err := os.ReadFile(".claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	flags, ids := mmbenchFlags(t), mmbenchExpIDs()
	if got := unknownExpIDs("run `mmbench -exp burst`, then `mmbench -exp serve`", ids); !slices.Equal(got, []string{"burst", "serve"}) {
		t.Errorf("the retired -exp burst and -exp serve read as unknown ids %v, want [burst serve]", got)
	}
	checked := 0
	for doc, text := range map[string]string{"PAPER.md": string(paper), "doc.go": f.Doc.Text(), "SKILL.md": string(skill)} {
		for _, name := range commandFlags(text) {
			checked++
			if !flags[name] {
				t.Errorf("%s: mmbench -%s: cmd/mmbench defines no such flag", doc, name)
			}
		}
		for _, id := range unknownExpIDs(text, ids) {
			t.Errorf("%s: -exp %s: mmbench runs no such experiment", doc, id)
		}
	}
	if checked < len(flags) {
		t.Errorf("only %d mmbench flags found in the docs: is commandFlags still parsing them?", checked)
	}
}
