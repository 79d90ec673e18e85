package gpgpusim

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layers is the module's package order, lowest first: a package may
// import only packages of a strictly lower layer. Directories are relative
// to the module root, internal/ left off; "." is the library door.
var layers = [][]string{
	{"ptx", "device", "ref", "stats", "cache", "dram", "nvlink", "golden"},
	{"exec", "kernels"},
	{"cudart"},
	{"timing", "cudnn", "debug", "hwmodel"},
	{"torch", "checkpoint", "power"},
	{"session", "mnist"},
	{"core", "serve"},
	{"multigpu"},
	{"aerial", "."},
	{"cmd/gpgpusim", "examples/concurrent_streams"},
}

// TestLayering parses the import block of every non-test file and fails
// on an import that does not go down the order above, or on a package the
// order has no place for: the layering is a fact, not a convention. Test
// files are exempt (a package's tests may build fixtures from the layers
// above it); bench/ is its own module.
func TestLayering(t *testing.T) {
	layer := map[string]int{}
	for i, names := range layers {
		for _, name := range names {
			layer[name] = i
		}
	}
	key := func(dir string) string { return strings.TrimPrefix(filepath.ToSlash(dir), "internal/") }
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := key(filepath.Dir(path))
		from, ok := layer[pkg]
		if !ok {
			if !seen[pkg] {
				t.Errorf("package %s has no place in the layering: add it to layers", pkg)
			}
			seen[pkg] = true
			return nil
		}
		seen[pkg] = true
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range file.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			if imp != "repro" && !strings.HasPrefix(imp, "repro/") {
				continue
			}
			dep := key(strings.TrimPrefix(strings.TrimPrefix(imp, "repro"), "/"))
			if dep == "" {
				dep = "."
			}
			if to, ok := layer[dep]; !ok {
				t.Errorf("%s imports %s, which has no place in the layering", path, imp)
			} else if to >= from {
				t.Errorf("%s imports %s: layer %d may not import layer %d", path, imp, from, to)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range layer {
		if !seen[name] {
			t.Errorf("layers lists %s, which has no non-test Go file", name)
		}
	}
}
