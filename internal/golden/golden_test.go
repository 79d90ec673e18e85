package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type entry struct {
	Cycles uint64 `json:"cycles"`
	Name   string `json:"name,omitempty"`
}

// recorder stands in for the *testing.T of a failing caller: it keeps
// the reports instead of failing this test. Fatalf ends the check the
// way a real one would, by unwinding.
type recorder struct {
	testing.TB
	reports []string
}

type fatal struct{}

func (r *recorder) Helper()                   {}
func (r *recorder) Name() string              { return "TestGoldenStats" }
func (r *recorder) Logf(string, ...any)       {}
func (r *recorder) Errorf(f string, a ...any) { r.reports = append(r.reports, fmt.Sprintf(f, a...)) }
func (r *recorder) Fatalf(f string, a ...any) { r.Errorf(f, a...); panic(fatal{}) }

func check(path string, update bool, got map[string]entry, explain func(string, entry, entry) string) (reports []string) {
	r := &recorder{}
	defer func() {
		if p := recover(); p != nil && p != (fatal{}) {
			panic(p)
		}
		reports = r.reports
	}()
	Check(r, path, update, got, explain)
	return nil
}

func TestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "golden.json")
	got := map[string]entry{"b": {Cycles: 2}, "a": {Cycles: 1, Name: "x"}}

	if r := check(path, false, got, nil); len(r) != 1 || !strings.Contains(r[0], "-update AFTER the package path") {
		t.Fatalf("missing file: reports %q", r)
	}
	if r := check(path, true, got, nil); len(r) != 0 {
		t.Fatalf("update: reports %q", r)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a\": {\n    \"cycles\": 1,\n    \"name\": \"x\"\n  },\n  \"b\": {\n    \"cycles\": 2\n  }\n}\n"; string(first) != want {
		t.Fatalf("file layout:\n%s\nwant:\n%s", first, want)
	}
	if r := check(path, false, got, nil); len(r) != 0 {
		t.Fatalf("unchanged entries: reports %q", r)
	}

	// one drifted, one missing from the file, one stale in it
	moved := map[string]entry{"a": {Cycles: 9, Name: "x"}, "c": {Cycles: 3}}
	r := check(path, false, moved, nil)
	if len(r) != 3 || !strings.Contains(r[0], `"a" drifted`) || !strings.Contains(r[0], "Cycles:9") ||
		!strings.Contains(r[1], `"c" is missing`) || !strings.Contains(r[2], `stale entry "b"`) {
		t.Fatalf("drift: reports %q", r)
	}
	for _, msg := range r {
		if !strings.Contains(msg, "-run '^TestGoldenStats$' -update") {
			t.Fatalf("report does not say where -update goes: %q", msg)
		}
	}
	r = check(path, false, moved, func(name string, g, w entry) string {
		return fmt.Sprintf("%s moved %d -> %d", name, w.Cycles, g.Cycles)
	})
	if len(r) != 3 || !strings.Contains(r[0], "a moved 1 -> 9") {
		t.Fatalf("explain: reports %q", r)
	}

	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r := check(path, false, got, nil); len(r) != 1 {
		t.Fatalf("malformed file: reports %q", r)
	}
}
