package multigpu

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite the golden stats file")

// goldenEntry pins a multi-GPU workload: modelled cycles, merged
// counters, fabric traffic and the run's functional digest (final
// weight bytes for training, output activation bytes for inference).
// Any change here is a simulator behaviour change and must be
// intentional (regenerate with -update and justify in the PR).
type goldenEntry struct {
	Devices         int      `json:"devices"`
	Cycles          uint64   `json:"cycles"`
	PerDeviceCycles []uint64 `json:"per_device_cycles"`
	Instructions    uint64   `json:"instructions"`
	L2Accesses      uint64   `json:"l2_accesses"`
	DRAMAccesses    uint64   `json:"dram_accesses"`
	Launches        int      `json:"launches"`
	NVLinkTransfers uint64   `json:"nvlink_transfers"`
	NVLinkBytes     uint64   `json:"nvlink_bytes"`
	Digest          uint64   `json:"digest"`
}

func dpEntry(r *DPTrainResult) goldenEntry {
	e := goldenEntry{
		Devices: r.Devices, Cycles: r.Cycles,
		NVLinkTransfers: r.NVLink.Transfers, NVLinkBytes: r.NVLink.BytesMoved,
		Digest: r.WeightsDigest,
	}
	for _, d := range r.PerDevice {
		e.PerDeviceCycles = append(e.PerDeviceCycles, d.Cycles)
		e.Instructions += d.Instructions
		e.L2Accesses += d.L2Accesses
		e.DRAMAccesses += d.DRAMAccesses
		e.Launches += d.Launches
	}
	return e
}

func tpEntry(r *TPInferResult) goldenEntry {
	e := goldenEntry{
		Devices: r.Devices, Cycles: r.Cycles,
		NVLinkTransfers: r.NVLink.Transfers, NVLinkBytes: r.NVLink.BytesMoved,
		Digest: r.OutputDigest,
	}
	for _, d := range r.PerDevice {
		e.PerDeviceCycles = append(e.PerDeviceCycles, d.Cycles)
		e.Instructions += d.Instructions
		e.L2Accesses += d.L2Accesses
		e.DRAMAccesses += d.DRAMAccesses
		e.Launches += d.Launches
	}
	return e
}

func TestGoldenStats(t *testing.T) {
	got := map[string]goldenEntry{}

	dp, err := RunDPTrain(Config{Devices: 2, Workers: 2}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	got["dp_train_small"] = dpEntry(dp)

	tp, err := RunTPInfer(Config{Devices: 2, Workers: 2}, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	got["tp_transformer_small"] = tpEntry(tp)

	golden.Check(t, filepath.Join("testdata", "golden_stats.json"), *update, got, nil)
}
