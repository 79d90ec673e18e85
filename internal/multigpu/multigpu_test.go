package multigpu

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/torch"
)

// TestDPTrainWorkerDeterminism is the cross-device extension of the
// repo's -j1 vs -jN differential: data-parallel training must produce
// byte-identical modelled cycles, per-device stats, losses and final
// weights for any host worker count.
func TestDPTrainWorkerDeterminism(t *testing.T) {
	for _, devices := range []int{2, 4} {
		var base *DPTrainResult
		for _, workers := range []int{1, 4} {
			res, err := RunDPTrain(Config{Devices: devices, Workers: workers}, 2, 8)
			if err != nil {
				t.Fatalf("devices=%d workers=%d: %v", devices, workers, err)
			}
			if res.Workers != workers {
				t.Fatalf("res.Workers = %d, want %d", res.Workers, workers)
			}
			res.Workers = 0 // the only field allowed to differ
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("devices=%d: -j1 vs -j4 results differ:\n  j1: %+v\n  j4: %+v", devices, base, res)
			}
		}
		if base.WeightsDigest == 0 {
			t.Fatalf("devices=%d: weights digest not computed", devices)
		}
		for r, d := range base.PerDevice {
			if d.Cycles != base.Cycles {
				t.Fatalf("devices=%d: rank %d ended at cycle %d, node at %d (collectives must align clocks)",
					devices, r, d.Cycles, base.Cycles)
			}
			if d.Instructions == 0 || d.Launches == 0 {
				t.Fatalf("devices=%d: rank %d did no work: %+v", devices, r, d)
			}
		}
		if base.NVLink.Transfers == 0 || base.NVLink.BytesMoved == 0 {
			t.Fatalf("devices=%d: no fabric traffic recorded: %+v", devices, base.NVLink)
		}
	}
}

// TestDPTrainReplayDeterminism runs the same differential with replay
// memoization on: replay counters are part of the byte-identity
// contract, and steady-state steps must actually hit the cache on every
// device.
func TestDPTrainReplayDeterminism(t *testing.T) {
	var base *DPTrainResult
	for _, workers := range []int{1, 2} {
		res, err := RunDPTrain(Config{Devices: 2, Workers: workers, Replay: true}, 3, 8)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res.Workers = 0
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("replay run differs by worker count:\n  j1: %+v\n  j2: %+v", base, res)
		}
	}
	if base.ReplayHits == 0 {
		t.Fatal("replay enabled but no hits recorded on any device")
	}
	for _, d := range base.PerDevice {
		if d.ReplayHits == 0 {
			t.Fatalf("rank %d recorded no replay hits: %+v", d.Device, d)
		}
	}
}

// TestDPTrainMatchesSingleDevice pins the multi-device-vs-single-device
// oracle: rank 0 of a data-parallel run sees the same sequences as a
// single-device run of the same formula would, and every rank's loss is
// independently checked against its CPU mirror inside the driver — here
// we additionally check the rank-0 step-0 loss equals the single-rank
// run's, since before the first all-reduce the replicas are bitwise
// identical and rank 0's sequence does not depend on the world size.
func TestDPTrainMatchesSingleDevice(t *testing.T) {
	single, err := RunDPTrain(Config{Devices: 1, Workers: 1}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunDPTrain(Config{Devices: 2, Workers: 2}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := multi.Losses[0][0], single.Losses[0][0]; math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("step-0 rank-0 loss %g differs from single-device %g", got, want)
	}
	// A 1-device node degenerates to plain training: no fabric traffic.
	if single.NVLink.Transfers != 0 {
		t.Fatalf("single-device run moved %d fabric transfers", single.NVLink.Transfers)
	}
}

// TestTPInferWorkerDeterminism: tensor-parallel inference, byte-identity
// across host worker counts at 2 and 4 devices. The bitwise match
// against the single-device reference is asserted inside the driver for
// every sequence.
func TestTPInferWorkerDeterminism(t *testing.T) {
	for _, devices := range []int{2, 4} {
		var base *TPInferResult
		for _, workers := range []int{1, 4} {
			res, err := RunTPInfer(Config{Devices: devices, Workers: workers}, 2, 12)
			if err != nil {
				t.Fatalf("devices=%d workers=%d: %v", devices, workers, err)
			}
			res.Workers = 0
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("devices=%d: -j1 vs -j4 results differ:\n  j1: %+v\n  j4: %+v", devices, base, res)
			}
		}
		// 4 all-gathers per block per sequence.
		if want := uint64(4 * base.Layers * base.Seqs); base.Gathers != want {
			t.Fatalf("devices=%d: %d gathers, want %d", devices, base.Gathers, want)
		}
	}
}

// TestTPInferDigestMatchesAcrossWorlds: the output bytes are the same
// no matter how many devices cooperate (the driver already checks each
// world against the reference; this checks world-vs-world directly).
func TestTPInferDigestMatchesAcrossWorlds(t *testing.T) {
	d2, err := RunTPInfer(Config{Devices: 2, Workers: 2}, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := RunTPInfer(Config{Devices: 4, Workers: 2}, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if d2.OutputDigest != d4.OutputDigest {
		t.Fatalf("output digest differs across worlds: 2-dev %x, 4-dev %x", d2.OutputDigest, d4.OutputDigest)
	}
}

// TestNodeValidation covers the config edges.
func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{Devices: 0}); err == nil {
		t.Fatal("NewNode accepted 0 devices")
	}
	if _, err := RunTPInfer(Config{Devices: 3, Workers: 1}, 1, 4); err == nil {
		t.Fatal("RunTPInfer accepted world 3 for a 4-head model")
	}
}

// TestCollectivesSynchroniseRanks queues a kernel on a non-default stream
// of rank 1 and calls each collective with no sync: the collective must
// drain every rank first, so that it reduces or gathers that kernel's
// output rather than the memory the kernel has not written yet.
func TestCollectivesSynchroniseRanks(t *testing.T) {
	n, err := NewNode(Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	vals := [][]float32{{1, 2, 3, 4}, {10, 20, 30, 40}}
	// upload puts vals on every rank and queues, on rank 1, a residual_add
	// that doubles its tensor in place
	upload := func(shape ...int) []*torch.Tensor {
		ts := make([]*torch.Tensor, 2)
		for r, dev := range n.Devs {
			if ts[r], err = dev.FromHost(vals[r], shape...); err != nil {
				t.Fatal(err)
			}
		}
		ctx, p := n.Devs[1].Ctx, ts[1].Ptr
		params := cudart.NewParams().Ptr(p).Ptr(p).Ptr(p).U32(4)
		if _, err := ctx.LaunchOnStream(ctx.StreamCreate(), "residual_add", exec.Dim3{X: 1}, exec.Dim3{X: 32}, params, 0); err != nil {
			t.Fatal(err)
		}
		return ts
	}

	ts := upload(4)
	if err := n.AllReduce([][]*torch.Tensor{{ts[0]}, {ts[1]}}); err != nil {
		t.Fatal(err)
	}
	for r, tt := range ts {
		if got, want := tt.ToHost(), []float32{21, 42, 63, 84}; !slices.Equal(got, want) {
			t.Errorf("AllReduce: rank %d holds %v, want %v (rank 1's queued kernel summed)", r, got, want)
		}
	}

	shards := upload(2, 2)
	dsts := make([]*torch.Tensor, 2)
	for r, dev := range n.Devs {
		if dsts[r], err = dev.NewTensor(2, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AllGatherCols(shards, dsts); err != nil {
		t.Fatal(err)
	}
	for r, tt := range dsts {
		if got, want := tt.ToHost(), []float32{1, 2, 20, 40, 3, 4, 60, 80}; !slices.Equal(got, want) {
			t.Errorf("AllGatherCols: rank %d holds %v, want %v (rank 1's queued kernel gathered)", r, got, want)
		}
	}
}

// TestCollectivesFailWithoutEffects calls each collective with operands
// that do not match across ranks. The call must return an error and
// leave the fabric's counters, every engine's clock and every operand's
// bytes as they were: the shapes are checked before the collective
// synchronises, charges the fabric or writes a rank.
func TestCollectivesFailWithoutEffects(t *testing.T) {
	type mkFunc = func(rank int, shape ...int) *torch.Tensor
	cases := []struct {
		name string
		// setup makes the operands with mk and returns the call
		setup func(mk mkFunc) func(*Node) error
	}{
		{"all_reduce_unequal_lists", func(mk mkFunc) func(*Node) error {
			a0, b0, a1 := mk(0, 2), mk(0, 2), mk(1, 2)
			return func(n *Node) error { return n.AllReduce([][]*torch.Tensor{{a0, b0}, {a1}}) }
		}},
		{"all_reduce_unequal_counts", func(mk mkFunc) func(*Node) error {
			a0, b0, a1, b1 := mk(0, 2), mk(0, 3), mk(1, 2), mk(1, 2)
			return func(n *Node) error { return n.AllReduce([][]*torch.Tensor{{a0, b0}, {a1, b1}}) }
		}},
		{"all_gather_small_dst", func(mk mkFunc) func(*Node) error {
			s0, s1, d0, d1 := mk(0, 2, 2), mk(1, 2, 2), mk(0, 2, 4), mk(1, 2, 3)
			return func(n *Node) error { return n.AllGatherCols([]*torch.Tensor{s0, s1}, []*torch.Tensor{d0, d1}) }
		}},
		{"all_gather_unequal_shards", func(mk mkFunc) func(*Node) error {
			s0, s1, d0, d1 := mk(0, 2, 2), mk(1, 2, 3), mk(0, 2, 4), mk(1, 2, 4)
			return func(n *Node) error { return n.AllGatherCols([]*torch.Tensor{s0, s1}, []*torch.Tensor{d0, d1}) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNode(Config{Devices: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			var operands []*torch.Tensor
			var before [][]float32
			call := tc.setup(func(rank int, shape ...int) *torch.Tensor {
				vals := make([]float32, 1)
				for _, d := range shape {
					vals = slices.Repeat(vals, d)
				}
				for i := range vals {
					vals[i] = float32(100*rank + len(operands)*10 + i + 1)
				}
				tt, err := n.Devs[rank].FromHost(vals, shape...)
				if err != nil {
					t.Fatal(err)
				}
				operands, before = append(operands, tt), append(before, vals)
				return tt
			})
			cycles := func() (cs []uint64) {
				for _, s := range n.Sessions {
					cs = append(cs, s.Eng.Cycle())
				}
				return cs
			}
			fab, clocks := n.Fabric.Stats(), cycles()
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				err = call(n)
			}()
			if err == nil {
				t.Fatal("mismatched operands accepted")
			}
			t.Log(err)
			if got := n.Fabric.Stats(); got != fab {
				t.Errorf("fabric counters %+v after the failed call, %+v before", got, fab)
			}
			if got := cycles(); !slices.Equal(got, clocks) {
				t.Errorf("engine clocks %v after the failed call, %v before", got, clocks)
			}
			for i, tt := range operands {
				if got := tt.ToHost(); !slices.Equal(got, before[i]) {
					t.Errorf("operand %d holds %v after the failed call, %v before", i, got, before[i])
				}
			}
		})
	}
}
