package gpgpusim

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadAllowFile lists the findings TestDeadCode tolerates, one per line:
// the finding's name, then one of allowReasons, then optionally ": " and a
// note. A line the gate would not report is stale and fails it.
const deadAllowFile = "testdata/deadcode_allow.txt"

var allowReasons = []string{"test oracle", "CUDA-runtime parity", "used by bench/", "read by serialisation"}

// TestDeadCode type-checks the root module and bench/ (tests included,
// the standard library from source, so nothing is downloaded) and fails on
// two kinds of dead code under internal/:
//
//   - (A) an exported func, method, type, const or var, or an unexported
//     package-level func or method, declared in a non-test file that no
//     non-test file of the root module or bench/ uses. A method that
//     satisfies an interface is used, and so is a member of a const block
//     another member of which is used.
//   - (B) a struct field declared in a non-test file that no file reads,
//     tests and bench/ included. Assignment, op-assignment, ++/--, a
//     composite-literal key, and index-assignment or delete through the
//     field are writes. A promoted selection reads the embedded field, and
//     a struct used as a map key is read whole.
//
// Uses of a declaration inside itself (recursion, a method's receiver)
// do not count.
func TestDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := sharedLoader(t)
	findings := l.findings()

	allow, err := readDeadAllow(deadAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if _, ok := allow[f.name]; ok {
			delete(allow, f.name)
			continue
		}
		t.Errorf("%s: %s", f.pos, f.msg)
	}
	for name, line := range allow {
		t.Errorf("%s:%d: %s is allow-listed but is not dead: delete the line", deadAllowFile, line, name)
	}
	if t.Failed() {
		t.Logf("delete what is reported (or move a test-only helper into the package's _test.go), "+
			"or add it to %s with one of the reasons %q", deadAllowFile, allowReasons)
	}
}

func readDeadAllow(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		reason, _, _ := strings.Cut(strings.TrimSpace(rest), ":")
		ok := false
		for _, r := range allowReasons {
			ok = ok || reason == r
		}
		if !ok {
			return nil, fmt.Errorf("%s:%d: %s: reason %q is not one of %q", path, n, name, reason, allowReasons)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allow[name] = n
	}
	return allow, sc.Err()
}

// deadPkg is one directory's Go files, split the way go test builds them.
type deadPkg struct {
	path                 string // import path
	dir                  string // slash path relative to the repo root
	files, tests, xtests []*ast.File
	variants             []*types.Package // the test builds: with in-package tests, the external test package
}

func (p *deadPkg) all() []*ast.File {
	return append(append(append([]*ast.File{}, p.files...), p.tests...), p.xtests...)
}

type deadLoader struct {
	err   error // the first type-checking error
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*deadPkg // by import path
	order []string            // import paths, sorted
	prod  map[string]*types.Package
	info  *types.Info // every check shares it: a non-test file's idents resolve the same in each
}

var shared struct {
	once sync.Once
	l    *deadLoader
	err  error
}

// sharedLoader loads the module once per test binary: TestDeadCode and
// TestDocReferences judge the same parse and the same type-checked
// packages.
func sharedLoader(t *testing.T) *deadLoader {
	shared.once.Do(func() {
		shared.l, shared.err = newDeadLoader()
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.l
}

// newDeadLoader parses every Go file of the root module and bench/, with
// comments, and type-checks each package and its test builds.
func newDeadLoader() (*deadLoader, error) {
	fset := token.NewFileSet()
	l := &deadLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*deadPkg{},
		prod: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := "repro"
		if dir != "." {
			ip += "/" + dir
		}
		p := l.pkgs[ip]
		if p == nil {
			p = &deadPkg{path: ip, dir: dir}
			l.pkgs[ip] = p
			l.order = append(l.order, ip)
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			p.files = append(p.files, file)
		case strings.HasSuffix(file.Name.Name, "_test"):
			p.xtests = append(p.xtests, file)
		default:
			p.tests = append(p.tests, file)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(l.order)
	for _, ip := range l.order {
		if len(l.pkgs[ip].files) > 0 {
			l.importProd(ip)
		}
	}
	for _, ip := range l.order {
		l.checkTests(l.pkgs[ip])
	}
	return l, l.err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks files as package ip; the first error is kept in
// l.err, which newDeadLoader returns.
func (l *deadLoader) check(ip string, files []*ast.File, imp importerFunc) *types.Package {
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(ip, l.fset, files, l.info)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("type-checking %s: %v", ip, err)
	}
	return pkg
}

// importProd type-checks a package's non-test files once.
func (l *deadLoader) importProd(ip string) (*types.Package, error) {
	if pkg, ok := l.prod[ip]; ok {
		return pkg, nil
	}
	p := l.pkgs[ip]
	if p == nil {
		return l.std.Import(ip)
	}
	l.prod[ip] = l.check(ip, p.files, l.importProd)
	return l.prod[ip], nil
}

// checkTests type-checks a package with its in-package tests, then its
// external tests the way go test builds them: against that variant, with
// every module package they import that depends on it rebuilt against it
// too.
func (l *deadLoader) checkTests(p *deadPkg) {
	if len(p.tests) == 0 && len(p.xtests) == 0 {
		return
	}
	variant := l.prod[p.path]
	if len(p.tests) > 0 {
		variant = l.check(p.path, append(append([]*ast.File{}, p.files...), p.tests...), l.importProd)
		p.variants = append(p.variants, variant)
	}
	if len(p.xtests) == 0 {
		return
	}
	rebuilt := map[string]*types.Package{p.path: variant}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg, ok := rebuilt[ip]; ok {
			return pkg, nil
		}
		if q := l.pkgs[ip]; q != nil && dependsOn(l.prod[ip], p.path) {
			rebuilt[ip] = l.check(ip, q.files, imp)
			return rebuilt[ip], nil
		}
		return l.importProd(ip)
	}
	p.variants = append(p.variants, l.check(p.path+"_test", p.xtests, imp))
}

// dependsOn reports whether pkg imports path, directly or not.
func dependsOn(pkg *types.Package, path string) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || (strings.HasPrefix(imp.Path(), "repro") && dependsOn(imp, path)) {
			return true
		}
	}
	return false
}

type deadFinding struct {
	name, pos, msg string
}

func (l *deadLoader) isTest(pos token.Pos) bool {
	return strings.HasSuffix(l.fset.File(pos).Name(), "_test.go")
}

func (l *deadLoader) where(pos token.Pos) string {
	p := l.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
}

// internalPkgs are the prod packages whose declarations the gate judges.
func (l *deadLoader) internalPkgs() []*deadPkg {
	var out []*deadPkg
	for _, ip := range l.order {
		if p := l.pkgs[ip]; strings.HasPrefix(p.dir, "internal/") && len(p.files) > 0 {
			out = append(out, p)
		}
	}
	return out
}

func (l *deadLoader) findings() []deadFinding {
	out := append(l.unusedExports(), l.unreadFields()...)
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// declOf is where an object is declared. Each check of a package makes
// its own objects, so the declaration, not the object, is the identity.
func declOf(obj types.Object) token.Pos {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().Pos()
	case *types.Var:
		return o.Origin().Pos()
	}
	return obj.Pos()
}

// unusedExports is rule (A).
func (l *deadLoader) unusedExports() []deadFinding {
	// A use inside the declaration it names does not count: a function's
	// own body, a type's own spec, and any method receiver.
	type span struct{ from, to token.Pos }
	in := func(s span, pos token.Pos) bool { return s.from <= pos && pos < s.to }
	own := map[token.Pos][]span{}
	var recvs []span
	constBlock := map[token.Pos][]token.Pos{}
	for _, p := range l.pkgs {
		for _, f := range p.all() {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[d.Name.Pos()] = append(own[d.Name.Pos()], span{d.Pos(), d.End()})
					if d.Recv != nil {
						recvs = append(recvs, span{d.Recv.Pos(), d.Recv.End()})
					}
				case *ast.GenDecl:
					var block []token.Pos
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[s.Name.Pos()] = append(own[s.Name.Pos()], span{s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if d.Tok == token.CONST && n.Name != "_" {
									block = append(block, n.Pos())
								}
							}
						}
					}
					for _, c := range block {
						constBlock[c] = block
					}
				}
			}
		}
	}
	sort.Slice(recvs, func(i, j int) bool { return recvs[i].from < recvs[j].from })
	selfUse := func(id *ast.Ident, decl token.Pos) bool {
		for _, s := range own[decl] {
			if in(s, id.Pos()) {
				return true
			}
		}
		i := sort.Search(len(recvs), func(i int) bool { return recvs[i].to > id.Pos() })
		return i < len(recvs) && in(recvs[i], id.Pos())
	}

	used := map[token.Pos]bool{}
	testUse := map[token.Pos]token.Pos{}
	for id, obj := range l.info.Uses {
		decl := declOf(obj)
		if !decl.IsValid() || selfUse(id, decl) {
			continue
		}
		if !l.isTest(id.Pos()) {
			used[decl] = true
		} else if p, ok := testUse[decl]; !ok || id.Pos() < p {
			testUse[decl] = id.Pos()
		}
	}

	// Named interfaces, by method name, of every package loaded, the
	// standard library's included.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		if !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenPkg := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					if it, ok := n.Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.prod {
		walk(pkg)
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var out []deadFinding
	report := func(p *deadPkg, obj types.Object, name, kind string) {
		vis := "unexported"
		if obj.Exported() {
			vis = "exported"
		}
		if used[obj.Pos()] {
			return
		}
		for _, c := range constBlock[obj.Pos()] {
			if used[c] {
				return
			}
		}
		name = strings.TrimPrefix(p.dir, "internal/") + "." + name
		msg := fmt.Sprintf("(A) %s %s is %s and no non-test file of the root module or bench/ uses it", kind, name, vis)
		if pos, ok := testUse[obj.Pos()]; ok {
			msg += " (only tests do, first at " + l.where(pos) + ")"
		}
		out = append(out, deadFinding{name, l.where(obj.Pos()), msg})
	}
	for _, p := range l.internalPkgs() {
		scope := l.prod[p.path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if _, fn := obj.(*types.Func); obj.Exported() || fn {
				report(p, obj, name, strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", obj), "*types.")))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !satisfies(m) {
					report(p, m, name+"."+m.Name(), "method")
				}
			}
		}
	}
	return out
}

// unreadFields is rule (B).
func (l *deadLoader) unreadFields() []deadFinding {
	writes := map[*ast.Ident]bool{}
	read := map[token.Pos]bool{}
	// markWrite walks an assigned expression down through field selections
	// that do not indirect and through indexing: each field on the way is
	// written, not read.
	markWrite := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := l.info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				writes[x.Sel] = true
				if sel.Indirect() {
					return
				}
				if _, ptr := l.info.Types[x.X].Type.Underlying().(*types.Pointer); ptr {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, p := range l.pkgs {
		for _, f := range p.all() {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							markWrite(lhs)
						}
					}
				case *ast.IncDecStmt:
					markWrite(n.X)
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
						if _, ok := l.info.Uses[id].(*types.Builtin); ok {
							markWrite(n.Args[0])
						}
					}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
									writes[id] = true
								}
							}
						}
					}
				case *ast.MapType: // a struct key is read whole
					if st, ok := l.info.Types[n.Key].Type.Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							read[st.Field(i).Origin().Pos()] = true
						}
					}
				}
				return true
			})
		}
	}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin().Pos()] = true
		}
	}
	firstWrite := map[token.Pos]token.Pos{}
	for id := range writes {
		obj := declOf(l.info.Uses[id])
		if p, ok := firstWrite[obj]; !ok || id.Pos() < p {
			firstWrite[obj] = id.Pos()
		}
	}
	for _, sel := range l.info.Selections {
		idx := sel.Index()
		t := sel.Recv()
		for _, i := range idx[:len(idx)-1] {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			read[f.Origin().Pos()] = true
			t = f.Type()
		}
	}

	var out []deadFinding
	for _, p := range l.internalPkgs() {
		for _, f := range p.files {
			var ctx []string
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					ctx = append(ctx, n.Name.Name)
					ast.Inspect(n.Body, visit)
					ctx = ctx[:len(ctx)-1]
					return false
				case *ast.TypeSpec:
					ctx = append(ctx, n.Name.Name)
					ast.Inspect(n.Type, visit)
					ctx = ctx[:len(ctx)-1]
					return false
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						names := fld.Names
						if len(names) == 0 {
							names = []*ast.Ident{embeddedName(fld.Type)}
						}
						for _, id := range names {
							v, _ := l.info.Defs[id].(*types.Var)
							if v == nil || id.Name == "_" {
								continue
							}
							if !read[v.Pos()] {
								name := strings.TrimPrefix(p.dir, "internal/") + "." + strings.Join(append(append([]string{}, ctx...), id.Name), ".")
								msg := fmt.Sprintf("(B) field %s is never read", name)
								if w, ok := firstWrite[v.Pos()]; ok {
									msg += " (written at " + l.where(w) + ")"
								}
								out = append(out, deadFinding{name, l.where(id.Pos()), msg})
							}
							ctx = append(ctx, id.Name)
							ast.Inspect(fld.Type, visit)
							ctx = ctx[:len(ctx)-1]
						}
					}
					return false
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	return out
}

func embeddedName(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.IndexExpr:
		return embeddedName(x.X)
	case *ast.IndexListExpr:
		return embeddedName(x.X)
	}
	return e.(*ast.Ident)
}
