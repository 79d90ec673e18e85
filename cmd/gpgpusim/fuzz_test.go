package main

import (
	"strings"
	"testing"
)

// FuzzValidateFlagCombos drives the flag-combination validator with
// arbitrary workload names and explicitly-set flag sets: it must never
// panic, must be deterministic, and every rejection must carry a usage
// hint naming the offending flag.
func FuzzValidateFlagCombos(f *testing.F) {
	// the supported -workload train invocations and every rejected combo
	// from the CLI smoke test
	f.Add("train", "steps", false, 1)
	f.Add("train", "steps,replay", false, 1)
	f.Add("train", "steps,j,replay,replay-resample", false, 1)
	f.Add("train", "steps,j,replay-resample", false, 1) // rejected: no -replay
	f.Add("decode", "replay-resample", false, 1)        // accepted: decode always replays
	f.Add("decode", "steps", false, 1)
	f.Add("", "steps", false, 1)
	f.Add("decode", "decode", false, 1)
	f.Add("serve", "decode,prompt,gen", true, 1)
	f.Add("transformer", "prompt", false, 1)
	f.Add("transformer", "gen", false, 1)
	f.Add("serve", "rate,trace", false, 1)
	f.Add("membound", "", false, 1)
	// -devices combos: the supported multi-GPU runs and every rejection
	f.Add("train", "devices,steps", false, 2)
	f.Add("train", "devices,j,replay", false, 4)
	f.Add("transformer", "devices,j", false, 2)
	f.Add("serve", "devices", false, 2)
	f.Add("decode", "devices", false, 2)
	f.Add("membound", "devices", false, 2)
	f.Add("train", "devices", false, 0)
	f.Add("train", "devices", false, -3)
	f.Add("transformer", "devices,streams", false, 2)
	f.Add("transformer", "devices,replay", false, 2)
	f.Fuzz(func(t *testing.T, workload, flagsCSV string, serveDecode bool, devices int) {
		set := map[string]bool{}
		for _, name := range strings.Split(flagsCSV, ",") {
			if name != "" {
				set[name] = true
			}
		}
		err := validateFlagCombos(workload, serveDecode, devices, set)
		again := validateFlagCombos(workload, serveDecode, devices, set)
		if (err == nil) != (again == nil) {
			t.Fatalf("validator not deterministic: %v vs %v", err, again)
		}
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejection with empty message")
			}
			if !strings.Contains(err.Error(), "usage:") && !strings.Contains(err.Error(), "drop one") {
				t.Fatalf("rejection without usage hint: %v", err)
			}
		}
		// a validator must never reject the empty flag set: bare
		// `-workload X` runs with defaults
		if len(set) == 0 && err != nil {
			t.Fatalf("empty flag set rejected: %v", err)
		}
		// -devices left at its default (not explicitly set) must never
		// cause a rejection, whatever value the caller passes through
		if !set["devices"] && err == nil && devices != 1 {
			if e := validateFlagCombos(workload, serveDecode, 1, set); e != nil {
				t.Fatalf("devices value changed the verdict without -devices set: %v", e)
			}
		}
	})
}
