// Package golden is the one "name → entry" JSON golden-file check behind
// the timing and multi-GPU statistics goldens and the torch launch-chain
// pin. A golden file is a JSON object, one entry per name, written
// indented with sorted keys and a trailing newline, so regenerating
// unchanged results rewrites the same bytes.
package golden

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// Check compares got with the entries stored at path, name by name, and
// reports every drifted, missing and stale name on t. With update set
// (the calling package's own -update flag) it rewrites the file from got
// instead. explain, when not nil, words a drifted entry's failure better
// than printing both values can.
func Check[E any](t testing.TB, path string, update bool, got map[string]E, explain func(name string, got, want E) string) {
	t.Helper()
	if update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	// -update belongs to the test binary, not to `go test`: placed before
	// the package path, `go test` rejects it as "flag provided but not
	// defined".
	rerun := "rerun with -update AFTER the package path: `go test <package> -run '^" + t.Name() + "$' -update`"
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (to create it, %s): %v", rerun, err)
	}
	var want map[string]E
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		g := got[name]
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: %q is missing from the golden file (%s)", path, name, rerun)
		case reflect.DeepEqual(g, w):
		case explain != nil:
			t.Errorf("%s: %q drifted: %s\n(intentional? %s)", path, name, explain(name, g, w), rerun)
		default:
			t.Errorf("%s: %q drifted:\n got %+v\nwant %+v\n(intentional? %s)", path, name, g, w, rerun)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden file has stale entry %q (%s)", path, name, rerun)
		}
	}
}
