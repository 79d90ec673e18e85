package main

import (
	"io"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzRegistryParse drives the front door's parse stage — the
// -workload pre-scan and the selected entry's flag set; nothing runs —
// with arbitrary workload names and flag combinations. It used to drive a
// hand-written validator; what it holds the registry to is the same
// promise: no combination panics, an unknown workload is refused, a
// combination of the entry's own flags parses, and one that contains a
// flag of another entry is rejected as undefined. The seeds come from the
// registry: every entry bare, with all of its own flags, and with every
// flag of every entry.
func FuzzRegistryParse(f *testing.F) {
	all := map[string]bool{}
	for i := range workloads {
		own := entryFlags(&workloads[i])
		for name := range own {
			all[name] = true
		}
		f.Add(workloads[i].name, "")
		f.Add(workloads[i].name, strings.Join(slices.Sorted(maps.Keys(own)), ","))
	}
	for i := range workloads {
		f.Add(workloads[i].name, strings.Join(slices.Sorted(maps.Keys(all)), ","))
	}
	f.Fuzz(func(t *testing.T, name, flagsCSV string) {
		args := []string{"-workload", name}
		var named []string
		for _, flag := range strings.Split(flagsCSV, ",") {
			if flag != "" {
				named = append(named, flag)
				args = append(args, "-"+flag+"=1") // a valid value for every flag type
			}
		}
		got := workloadArg(args)
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == got })
		if i < 0 {
			if code := run(args, io.Discard, io.Discard); code != 2 {
				t.Fatalf("gpgpusim %q: unknown workload exited %d, want 2", args, code)
			}
			return
		}
		own := entryFlags(&workloads[i])
		fs, _, _ := workloads[i].flagSet(io.Discard)
		err := fs.Parse(args)
		if slices.ContainsFunc(named, func(n string) bool { return !all[n] }) {
			return // not a registry flag: whatever the flag package makes of it
		}
		if slices.ContainsFunc(named, func(n string) bool { return !own[n] }) {
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("gpgpusim %q names a flag of another entry, but parsing returned %v", args, err)
			}
		} else if err != nil {
			t.Fatalf("gpgpusim %q names only the entry's own flags, but parsing returned %v", args, err)
		}
	})
}
