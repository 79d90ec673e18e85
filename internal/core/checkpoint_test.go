package core

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/timing"
)

// resumeBlob decodes a checkpoint and resumes the sample application from
// it on a fresh engine: the error either step returns, or nil.
func resumeBlob(t *testing.T, blob []byte) error {
	st, err := checkpoint.Decode(blob)
	if err != nil {
		return err
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = resumeCheckpointSample(st, eng)
	return err
}

// TestCheckpointResumeRefusesMisfits corrupts one thing at a time in the
// sample's checkpoint and resumes it: every corruption must come back as
// an error, where resume used to panic (a saved warp the grid does not
// have, a negative PC) or silently skip and repeat blocks (CTA indices
// other than M, M+1, ...).
func TestCheckpointResumeRefusesMisfits(t *testing.T) {
	blob, err := captureCheckpointSample()
	if err != nil {
		t.Fatal(err)
	}
	warp := func(s *checkpoint.State) *checkpoint.WarpState { return &s.CTAs[0].Warps[1] }
	rows := []struct {
		name    string
		corrupt func(s *checkpoint.State)
	}{
		{"pristine", func(*checkpoint.State) {}},
		{"old format version", func(s *checkpoint.State) { s.Version = 1 }},
		{"no global memory", func(s *checkpoint.State) { s.Mem = nil }},
		{"a page number without its page", func(s *checkpoint.State) { s.Mem.Pages = s.Mem.Pages[1:] }},
		{"another kernel", func(s *checkpoint.State) { s.Kernel = "relu_forward" }},
		{"another grid", func(s *checkpoint.State) { s.GridDim.X++ }},
		{"another block", func(s *checkpoint.State) { s.BlockDim.Y++ }},
		{"another dynamic shared size", func(s *checkpoint.State) { s.SharedDyn = 64 }},
		{"other parameters", func(s *checkpoint.State) { s.Params[0] ^= 1 }},
		{"negative M", func(s *checkpoint.State) { s.Point.CTAM = -1 }},
		{"in-flight CTAs past the grid", func(s *checkpoint.State) { s.Point.CTAM = 1 << 20 }},
		{"CTA index not M", func(s *checkpoint.State) { s.CTAs[0].Index++ }},
		{"CTA indices out of order", func(s *checkpoint.State) {
			s.CTAs[0].Index, s.CTAs[1].Index = s.CTAs[1].Index, s.CTAs[0].Index
		}},
		{"shared memory size", func(s *checkpoint.State) { s.CTAs[0].Shared = append(s.CTAs[0].Shared, 0) }},
		{"an extra warp", func(s *checkpoint.State) { s.CTAs[0].Warps = append(s.CTAs[0].Warps, *warp(s)) }},
		{"a missing warp", func(s *checkpoint.State) { s.CTAs[1].Warps = s.CTAs[1].Warps[1:] }},
		{"warp ID", func(s *checkpoint.State) { warp(s).ID = 0 }},
		{"thread mask", func(s *checkpoint.State) { warp(s).InitMask >>= 1 }},
		{"register rows permuted", func(s *checkpoint.State) {
			i := slices.IndexFunc(s.RegMap, func(r int32) bool { return r != s.RegMap[0] })
			s.RegMap[0], s.RegMap[i] = s.RegMap[i], s.RegMap[0]
		}},
		{"no register allocation", func(s *checkpoint.State) { s.RegMap = nil }},
		{"register file length", func(s *checkpoint.State) { warp(s).Regs = warp(s).Regs[:len(warp(s).Regs)-1] }},
		{"local memory lanes", func(s *checkpoint.State) { warp(s).Locals = make([][]byte, exec.WarpSize) }},
		{"negative PC", func(s *checkpoint.State) { warp(s).Stack[0].PC = -1 }},
		{"PC past the kernel", func(s *checkpoint.State) { warp(s).Stack[0].PC = 1 << 20 }},
		{"live warp with no stack", func(s *checkpoint.State) { warp(s).Stack, warp(s).Done = nil, false }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st, err := checkpoint.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.CTAs) < 2 || len(st.CTAs[0].Warps) < 2 || st.CTAs[0].Warps[1].InitMask != ^uint32(0) {
				t.Fatalf("the sample checkpoint no longer has the two full in-flight CTAs these rows corrupt")
			}
			row.corrupt(st)
			corrupted, err := st.Encode()
			if err != nil {
				t.Fatal(err)
			}
			err = resumeBlob(t, corrupted)
			if row.name == "pristine" {
				if err != nil {
					t.Fatalf("the uncorrupted checkpoint does not resume: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("resume accepted the corrupted checkpoint")
			}
			t.Log(err)
		})
	}
}

// FuzzCheckpointDecode: arbitrary bytes either fail to decode or to
// resume with an error, or resume; they never panic. Seeded with the
// sample's checkpoint and with the same checkpoint in format version 2
// (testdata/checkpoint_v2.bin.gz, registers saved by slot), which must
// fail with a *checkpoint.VersionError. Before resuming, every saved warp's instruction
// count is raised to within maxWarpResume of the interpreter's runaway
// ceiling (1<<24, exec's maxWarpInstrs), so a corrupted loop counter ends
// in a RunawayError within milliseconds instead of seconds.
func FuzzCheckpointDecode(f *testing.F) {
	blob, err := captureCheckpointSample()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	old, err := readGzip("testdata/checkpoint_v2.bin.gz")
	if err != nil {
		f.Fatal(err)
	}
	var verr *checkpoint.VersionError
	if _, err := checkpoint.Decode(old); !errors.As(err, &verr) || verr.Got != 2 || verr.Want != checkpoint.Version {
		f.Fatalf("a version-2 checkpoint decodes with %v, want a version error", err)
	}
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := checkpoint.Decode(data)
		if err != nil {
			return
		}
		const ceiling, maxWarpResume = 1 << 24, 20_000
		for i := range st.CTAs {
			for j := range st.CTAs[i].Warps {
				w := &st.CTAs[i].Warps[j]
				w.InstrCount = max(w.InstrCount, ceiling-maxWarpResume)
			}
		}
		eng, err := timing.New(timing.GTX1050())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		_, _ = resumeCheckpointSample(st, eng)
	})
}

// readGzip returns the decompressed contents of a gzip file.
func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}
