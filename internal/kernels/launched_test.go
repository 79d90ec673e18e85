package kernels_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kernels"
)

// addStringLiterals adds to lits the value of every string literal in the
// Go files in dir: its test files if tests, else the others.
func addStringLiterals(t *testing.T, lits map[string]bool, dir string, tests bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					lits[s] = true
				}
			}
			return true
		})
	}
}

// TestLibraryKernelsLaunched keeps the library free of kernels nothing
// runs: every .entry must be named by a string literal in a non-test file
// of internal/cudnn (its launcher) or in a test of this package.
func TestLibraryKernelsLaunched(t *testing.T) {
	named := map[string]bool{}
	addStringLiterals(t, named, filepath.Join("..", "cudnn"), false)
	addStringLiterals(t, named, ".", true)
	mods, err := kernels.ParsedModules()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mods {
		for _, name := range m.KernelNames() {
			if !named[name] {
				t.Errorf("module %d (%s): kernel %s has no launcher in internal/cudnn and no test in internal/kernels",
					i, moduleNames[i], name)
			}
		}
	}
}
