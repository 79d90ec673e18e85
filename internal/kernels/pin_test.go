package kernels_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite testdata/library_pin.json from the current generators")

// moduleNames labels AllModules() entries, in registration order, for
// the pin file and its failure messages.
var moduleNames = []string{
	"elementwise", "gemm", "conv_direct", "fft", "winograd",
	"pool_softmax", "lrn", "transformer", "decode", "train",
}

// libraryPin pins the generated PTX byte for byte: every modelled
// number, replay signature and golden in the repo is a function of
// these strings, so a generator refactor that keeps them identical
// cannot move anything else. Only a PR that means to change kernel
// code may regenerate the file (-update).
type libraryPin struct {
	SHA256  string      `json:"sha256"` // of the ten modules concatenated
	Bytes   int         `json:"bytes"`
	Kernels []kernelPin `json:"kernels"`
	Modules []modulePin `json:"modules"`
}

// kernelPin pins one .entry of one module (fill_zero is in two), so a
// pin diff names exactly the kernels it adds, removes or changes.
type kernelPin struct {
	Module string `json:"module"`
	Entry  string `json:"entry"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

type modulePin struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
	// Lines holds four hex digits of FNV-1a per line of the module, so
	// a mismatch can be traced to its first differing line without
	// storing the text itself.
	Lines string `json:"lines"`
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func lineMark(line string) string {
	h := fnv.New32a()
	h.Write([]byte(line))
	return fmt.Sprintf("%04x", h.Sum32()&0xffff)
}

func pinOf(mods []string) libraryPin {
	all := strings.Join(mods, "")
	pin := libraryPin{SHA256: sha(all), Bytes: len(all)}
	for i, src := range mods {
		var marks strings.Builder
		for _, line := range strings.Split(src, "\n") {
			marks.WriteString(lineMark(line))
		}
		pin.Modules = append(pin.Modules, modulePin{
			Name: moduleNames[i], SHA256: sha(src), Bytes: len(src), Lines: marks.String(),
		})
		for _, k := range entries(src) {
			pin.Kernels = append(pin.Kernels, kernelPin{
				Module: moduleNames[i], Entry: k.name, SHA256: sha(k.text), Bytes: len(k.text),
			})
		}
	}
	return pin
}

type entry struct{ name, text string }

// entries splits a module into its kernels: each runs from its
// ".visible .entry" line through the closing brace Builder.Build emits.
func entries(src string) []entry {
	const head = ".visible .entry "
	var out []entry
	for {
		start := strings.Index(src, head)
		if start < 0 {
			return out
		}
		src = src[start:]
		end := strings.Index(src, "\n}\n") + len("\n}\n")
		name, _, _ := strings.Cut(src[len(head):], "(")
		out = append(out, entry{name, src[:end]})
		src = src[end:]
	}
}

// firstDiff locates the first line of src whose mark differs from the
// pinned ones and names the kernel it sits in.
func firstDiff(src, wantMarks string) string {
	kernel, kernelStart := "module header", 0
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		if rest, ok := strings.CutPrefix(line, ".visible .entry "); ok {
			kernel, kernelStart = strings.TrimSuffix(rest, "("), i
		}
		if 4*i+4 > len(wantMarks) {
			return fmt.Sprintf("kernel %s: module has %d lines, pinned %d; first extra line %d: %q",
				kernel, len(lines), len(wantMarks)/4, i+1, line)
		}
		if lineMark(line) != wantMarks[4*i:4*i+4] {
			return fmt.Sprintf("kernel %s, line %d of the kernel (%d of the module): now %q",
				kernel, i-kernelStart+1, i+1, line)
		}
	}
	return fmt.Sprintf("module has %d lines, pinned %d: the tail is missing", len(lines), len(wantMarks)/4)
}

func TestLibraryPTXPinned(t *testing.T) {
	mods := kernels.AllModules()
	if len(mods) != len(moduleNames) {
		t.Fatalf("AllModules returned %d modules, the pin names %d", len(mods), len(moduleNames))
	}
	got := pinOf(mods)
	path := filepath.Join("testdata", "library_pin.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d bytes of PTX, sha256 %s", path, got.Bytes, got.SHA256)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want libraryPin
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want.Modules) != len(mods) {
		t.Fatalf("%s pins %d modules, the library has %d", path, len(want.Modules), len(mods))
	}
	for i, w := range want.Modules {
		g := got.Modules[i]
		if g.SHA256 != w.SHA256 || g.Bytes != w.Bytes {
			t.Errorf("module %d (%s): %d bytes sha256 %s, pinned %d bytes sha256 %s\n\t%s",
				i, w.Name, g.Bytes, g.SHA256, w.Bytes, w.SHA256, firstDiff(mods[i], w.Lines))
		}
	}
	gotKernels := map[[2]string]kernelPin{}
	for _, k := range got.Kernels {
		gotKernels[[2]string{k.Module, k.Entry}] = k
	}
	for _, w := range want.Kernels {
		key := [2]string{w.Module, w.Entry}
		g, ok := gotKernels[key]
		switch {
		case !ok:
			t.Errorf("kernel %s/%s: pinned, no longer generated", w.Module, w.Entry)
		case g != w:
			t.Errorf("kernel %s/%s: %d bytes sha256 %s, pinned %d bytes sha256 %s",
				w.Module, w.Entry, g.Bytes, g.SHA256, w.Bytes, w.SHA256)
		}
		delete(gotKernels, key)
	}
	for key := range gotKernels {
		t.Errorf("kernel %s/%s: generated, not pinned", key[0], key[1])
	}
	if got.SHA256 != want.SHA256 || got.Bytes != want.Bytes {
		t.Errorf("library: %d bytes sha256 %s, pinned %d bytes sha256 %s",
			got.Bytes, got.SHA256, want.Bytes, want.SHA256)
	}
}
