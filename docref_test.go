package gpgpusim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocReferences holds every package doc comment of the root module to
// the code it describes. Each backticked token shaped like a Go name must
// resolve against the package's declarations, its tests' included, or
// against a package it or its tests import:
//
//   - an identifier: `Engine`, `occupancy`, `nil`;
//   - a selector of fields and methods: `Engine.Drain`,
//     `exec.StepInfo.Segments`, `Stats.add()`;
//   - a test, fuzz target, benchmark or example, with any /subtest suffix
//     ignored: `TestPerKernelMemCounters/mem_segments_every_retirement`.
//     A test may also be qualified by a root-module package that does not
//     import this one, since the test that enforces a rule often lives in
//     a package above it: `core.TestRecycledStorageReadsFresh`.
//
// A token of any other shape — a command line, an expression, a file name
// such as `core.go` — is prose and is not checked. A name that is gone
// is written without backticks. The table below feeds the check doc
// comments that name what does not exist, one kind per row, and requires
// the file, line and token of each.
func TestDocReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := sharedLoader(t)
	for _, ip := range l.order {
		p := l.pkgs[ip]
		if strings.HasPrefix(p.dir+"/", "bench/") {
			continue // its own module
		}
		for _, f := range p.files {
			for _, msg := range l.docRefErrors(p, f.Doc) {
				t.Error(msg)
			}
		}
	}

	p := l.pkgs["repro/internal/timing"]
	for _, c := range []struct {
		name, token string
		ok          bool
	}{
		{"package_level", "NoSuchEngine", false},
		{"method", "Engine.NoSuchMethod", false},
		{"field", "MemCounters.NoSuchCounter", false},
		{"field_of_imported", "exec.StepInfo.NoSuchField", false},
		{"test", "TestNoSuchInvariant", false},
		{"test_of_package_above", "core.TestNoSuchInvariant", false},
		{"selector_past_a_method", "Engine.Drain.Cycle", false},
		{"declared", "Engine.Drain", true},
		{"unexported_method", "Stats.add()", true},
		{"field_of_imported_ok", "exec.StepInfo.Segments", true},
		{"test_ok", "TestDrainEquivalence", true},
		{"subtest_ok", "TestPerKernelMemCounters/mem_segments_every_retirement", true},
		{"test_of_package_above_ok", "core.TestRecycledStorageReadsFresh", true},
		{"universe", "nil", true},
		{"file_name", "nosuchfile.go", true},
		{"command", "go test ./internal/timing -run X", true},
	} {
		t.Run("table/"+c.name, func(t *testing.T) {
			src := "// Package timing is a test row.\n//\n// It names `" + c.token + "` on line 3.\npackage timing\n"
			name := "internal/timing/doc_" + c.name + ".go"
			f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			got := l.docRefErrors(p, f.Doc)
			if c.ok {
				if len(got) != 0 {
					t.Errorf("`%s` was rejected: %v", c.token, got)
				}
				return
			}
			want := name + ":3: `" + c.token + "`"
			if len(got) != 1 || !strings.HasPrefix(got[0], want) {
				t.Errorf("`%s`: got %q, want one error starting %q", c.token, got, want)
			}
		})
	}
}

var (
	backticked = regexp.MustCompile("`([^`]*)`")
	goName     = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(\(\))?(/\S*)?$`)
	testName   = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	fileExt    = map[string]bool{"go": true, "json": true, "txt": true, "md": true, "ptx": true, "golden": true,
		"trace": true, "gz": true, "bin": true, "csv": true, "yml": true, "sh": true, "mod": true}
)

// docRefErrors checks one package doc comment of p and returns a
// "file:line: `token` ..." message per name that resolves to nothing.
func (l *deadLoader) docRefErrors(p *deadPkg, doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	scopes, imports := l.docScopes(p)
	// A token may wrap onto the next comment line, so the group is matched
	// as one text; starts[i] is where comment i begins in it.
	var text strings.Builder
	starts := make([]int, len(doc.List))
	for i, c := range doc.List {
		starts[i] = text.Len()
		text.WriteString(c.Text)
		text.WriteByte('\n')
	}
	txt := text.String()
	var out []string
	for _, m := range backticked.FindAllStringSubmatchIndex(txt, -1) {
		tok := txt[m[2]:m[3]]
		parts := goName.FindStringSubmatch(tok)
		if parts == nil {
			continue
		}
		elems := strings.Split(parts[1], ".")
		last := elems[len(elems)-1]
		if parts[3] != "" && !testName.MatchString(last) || len(elems) > 1 && fileExt[last] {
			continue // a path or a file name
		}
		if why := l.resolve(elems, scopes, imports); why != "" {
			i := sort.SearchInts(starts, m[0]+1) - 1
			pos := l.fset.Position(doc.List[i].Pos())
			pos.Line += strings.Count(txt[starts[i]:m[0]], "\n")
			out = append(out, fmt.Sprintf("%s:%d: `%s` %s", pos.Filename, pos.Line, tok, why))
		}
	}
	return out
}

// docScopes returns the scopes a name in p's doc is looked up in — the
// package and its test builds — and the packages a qualifier may name:
// those p and its tests import, keyed by package name.
func (l *deadLoader) docScopes(p *deadPkg) ([]*types.Scope, map[string]*types.Package) {
	var scopes []*types.Scope
	imports := map[string]*types.Package{}
	for _, pkg := range append([]*types.Package{l.prod[p.path]}, p.variants...) {
		if pkg == nil {
			continue
		}
		scopes = append(scopes, pkg.Scope())
		for _, imp := range pkg.Imports() {
			imports[imp.Name()] = imp
		}
	}
	if pkg := l.prod[p.path]; pkg != nil {
		imports[pkg.Name()] = pkg
	}
	return scopes, imports
}

// resolve looks a dotted name up and returns "" when it names something,
// or why it does not. Each build of a package declares its own objects,
// and a test build's type may have methods its production build lacks,
// so every scope's object for the first name is tried.
func (l *deadLoader) resolve(elems []string, scopes []*types.Scope, imports map[string]*types.Package) string {
	lookup := func(scopes []*types.Scope, name string) []types.Object {
		var out []types.Object
		for _, s := range scopes {
			if obj := s.Lookup(name); obj != nil {
				out = append(out, obj)
			}
		}
		return out
	}
	objs := lookup(append(scopes, types.Universe), elems[0])
	rest := elems[1:]
	if len(objs) == 0 && len(elems) > 1 {
		if pkg := imports[elems[0]]; pkg != nil {
			objs = lookup(l.scopesOf(pkg.Path()), elems[1])
		} else if testName.MatchString(elems[1]) {
			objs = lookup(l.moduleScopes(elems[0]), elems[1])
		}
		if len(objs) == 0 {
			return fmt.Sprintf("names nothing: %s has no %s", elems[0], elems[1])
		}
		rest = elems[2:]
	}
	if len(objs) == 0 {
		return "names nothing declared in the package, its tests or the language"
	}
	var why string
	for _, obj := range objs {
		if why = selectChain(obj, rest); why == "" {
			return ""
		}
	}
	return why
}

// selectChain follows field and method selections from obj.
func selectChain(obj types.Object, names []string) string {
	for _, name := range names {
		var t types.Type
		switch o := obj.(type) {
		case *types.TypeName:
			t = o.Type()
		case *types.Var:
			t = o.Type()
		default:
			return fmt.Sprintf("selects %s from %s, which has no fields or methods", name, obj.Name())
		}
		sel, _, _ := types.LookupFieldOrMethod(t, true, obj.Pkg(), name)
		if sel == nil {
			return fmt.Sprintf("names nothing: %s has no field or method %s", obj.Name(), name)
		}
		obj = sel
	}
	return ""
}

// scopesOf returns the scopes of the package at import path ip and of its
// test builds when it is a root-module package.
func (l *deadLoader) scopesOf(ip string) []*types.Scope {
	p := l.pkgs[ip]
	if p == nil {
		if pkg, err := l.std.Import(ip); err == nil {
			return []*types.Scope{pkg.Scope()}
		}
		return nil
	}
	scopes, _ := l.docScopes(p)
	return scopes
}

// moduleScopes returns the scopes of every root-module package named name.
func (l *deadLoader) moduleScopes(name string) []*types.Scope {
	var out []*types.Scope
	for _, ip := range l.order {
		if pkg := l.prod[ip]; pkg != nil && pkg.Name() == name && !strings.HasPrefix(l.pkgs[ip].dir+"/", "bench/") {
			out = append(out, l.scopesOf(ip)...)
		}
	}
	return out
}
