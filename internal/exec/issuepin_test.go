package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/kernels"
)

// issuePin is a sha256 over the issue table of every library kernel
// (writeIssue): what the timing model's scoreboard waits on and marks
// busy, and how it classes each instruction. A change to how a program
// is lowered or kept must leave it alone.
const issuePin = "704c04dd37c65ec1a2efda46a925cfa2e5f5a9aae92d91bf79e063a2aac18b88"

// writeIssue writes one PC's issue information: the rows read, the rows
// written, the latency class and the atomic and SFU marks.
func writeIssue(h hash.Hash, src, dst []int32, lat LatencyClass, atomic, sfu bool) {
	fmt.Fprintf(h, "src%v dst%v lat=%d atomic=%v sfu=%v\n", src, dst, lat, atomic, sfu)
}

func TestLibraryIssueTablePinned(t *testing.T) {
	mods, err := kernels.ParsedModules()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	m := NewMachine(BugSet{}, nil, nil)
	for _, mod := range mods {
		for _, name := range mod.KernelNames() {
			k := mod.Kernels[name]
			p := m.program(k)
			fmt.Fprintf(h, "kernel %s: %d rows\n", name, p.rows)
			for pc := range k.Instrs {
				t := &p.issue
				writeIssue(h, t.Src(pc), t.Dst(pc), t.Lat(pc), t.Atomic(pc), t.SFU(pc))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != issuePin {
		t.Errorf("library issue tables hash %s, pinned %s", got, issuePin)
	}
}
