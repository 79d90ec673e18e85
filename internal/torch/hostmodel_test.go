package torch_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/torch"
)

// Host-model tests: the transformer's host oracles (encoder, block and
// attention ForwardCPU, the decoder's causal forward and GenerateCPU,
// and the CPUTrainState training mirror) pinned bit for bit, the
// decoder oracle's causality, and generated model shapes checked against
// the device.

func hashFloats(h hash.Hash, xs []float32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(xs)))
	h.Write(b[:])
	for _, v := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

func hashTokens(h hash.Hash, ids []int32) {
	xs := make([]float32, len(ids))
	for i, id := range ids {
		xs[i] = float32(id)
	}
	hashFloats(h, xs)
}

// hostOutputs hashes every host oracle's output for one configuration:
// the encoder, first block, first attention and decoder forwards on seq
// ids, GenerateCPU from a two-token prompt (one token when seq is 1),
// three data-parallel steps of two CPUTrainState mirrors (the losses and
// every ParamSnapshot after each step) and one TrainStep of a third.
func hostOutputs(t *testing.T, cfg torch.TransformerConfig, seq int, seed int64) string {
	t.Helper()
	dev := newDev(t)
	enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := torch.NewTransformerDecoder(dev, rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	h := sha256.New()
	ids := trainIDs(rng, seq, cfg.Vocab)
	y, _ := enc.ForwardCPU(ids)
	hashFloats(h, y)
	x := randInput(rng, seq*cfg.DModel)
	shape := []int{seq, cfg.DModel}
	y, _ = enc.Blocks[0].ForwardCPU(x, shape)
	hashFloats(h, y)
	y, _ = enc.Blocks[0].Attn.ForwardCPU(x, shape)
	hashFloats(h, y)
	y, _ = dec.ForwardCPU(ids)
	hashFloats(h, y)
	prompt := ids[:min(2, seq)]
	gen, err := dec.GenerateCPU(prompt, cfg.MaxSeq-len(prompt)+1)
	if err != nil {
		t.Fatal(err)
	}
	hashTokens(h, gen)

	const lr = 0.05
	mirrors := []*torch.CPUTrainState{torch.NewCPUTrainState(enc), torch.NewCPUTrainState(enc)}
	for step := 0; step < 3; step++ {
		for _, m := range mirrors {
			loss := m.ForwardBackward(trainIDs(rng, seq, cfg.Vocab))
			hashFloats(h, []float32{loss})
		}
		torch.AllReduceCPUGrads(mirrors)
		for _, m := range mirrors {
			m.ApplySGD(lr / 2)
			for i := range enc.Params() {
				hashFloats(h, m.ParamSnapshot(i))
			}
		}
	}
	single := torch.NewCPUTrainState(enc)
	hashFloats(h, []float32{single.TrainStep(ids, lr)})
	for i := range enc.Params() {
		hashFloats(h, single.ParamSnapshot(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHostModelPinned pins the host oracles' outputs bit for bit, so a
// change to how the host model is written must leave what it computes
// alone. The configurations cover a model width that is not a multiple
// of the GEMM tile (3 heads of 5) and a one-token sequence.
func TestHostModelPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  torch.TransformerConfig
		seq  int
		want string
	}{
		{"two_layers", torch.TransformerConfig{Layers: 2, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8}, 8,
			"4cbcbcdd75575c6103fcca658cefe03a38ded3946a1d24e17722b20fa7c90283"},
		{"dmodel_15", torch.TransformerConfig{Layers: 1, Heads: 3, DModel: 15, FF: 12, Vocab: 17, MaxSeq: 6}, 5,
			"3d7aee75cd2c0a31f0f55fd391f39cd91cac85b7ba5d94a07292f522fc5da2a0"},
		{"seq_1", torch.TransformerConfig{Layers: 2, Heads: 4, DModel: 32, FF: 64, Vocab: 61, MaxSeq: 16}, 1,
			"80e0c962a0fe0290d62ac6ba5916e580991c294601b88304c4a168cb5bf36c3c"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := hostOutputs(t, c.cfg, c.seq, 71); got != c.want {
				t.Fatalf("host outputs hash %s, pinned %s", got, c.want)
			}
		})
	}
}

// TestDecoderOracleIsCausal checks the decoder's host forward is causal:
// row i-1 of ForwardCPU(ids) equals the last row of ForwardCPU(ids[:i])
// bit for bit, for every prefix length i. The encoder's unmasked forward
// on the same weights must break that for every shorter prefix, so a
// decoder oracle that resolved to the encoder's would fail here.
func TestDecoderOracleIsCausal(t *testing.T) {
	for _, cfg := range []torch.TransformerConfig{
		{Layers: 2, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8},
		{Layers: 1, Heads: 3, DModel: 15, FF: 12, Vocab: 17, MaxSeq: 6},
	} {
		_, dec := newDecoder(t, 73, cfg)
		ids := trainIDs(rand.New(rand.NewSource(74)), cfg.MaxSeq, cfg.Vocab)
		dm := cfg.DModel
		full, _ := dec.ForwardCPU(ids)
		enc, _ := dec.TransformerEncoder.ForwardCPU(ids)
		for i := 1; i <= len(ids); i++ {
			prefix, _ := dec.ForwardCPU(ids[:i])
			encPrefix, _ := dec.TransformerEncoder.ForwardCPU(ids[:i])
			row, last := full[(i-1)*dm:i*dm], prefix[(i-1)*dm:]
			encRow, encLast := enc[(i-1)*dm:i*dm], encPrefix[(i-1)*dm:]
			for j := range row {
				if math.Float32bits(row[j]) != math.Float32bits(last[j]) {
					t.Fatalf("%+v: decoder row %d col %d is %v over %d ids, %v over the prefix", cfg, i-1, j, row[j], len(ids), last[j])
				}
			}
			if i < len(ids) && equalBits(encRow, encLast) {
				t.Fatalf("%+v: encoder row %d equals its prefix's last row: its oracle is not bidirectional", cfg, i-1)
			}
		}
		if equalBits(full, enc) {
			t.Fatalf("%+v: decoder and encoder host forwards agree on %d ids", cfg, len(ids))
		}
	}
}

func equalBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestGeneratedShapesMatchHostModel runs a fixed-seed table of generated
// model shapes — 1 or 2 layers, 1 to 4 heads of width 1 to 9, FF 1 to
// 40, sequences of 1, MaxSeq or a random length — and checks the device
// against the host model: Forward against ForwardCPU, Generate against
// GenerateCPU token for token, and one TrainStep's loss against
// CPUTrainState's.
func TestGeneratedShapesMatchHostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for n := 0; n < 24; n++ {
		heads := 1 + rng.Intn(4)
		cfg := torch.TransformerConfig{
			Layers: 1 + rng.Intn(2),
			Heads:  heads,
			DModel: heads * (1 + rng.Intn(9)),
			FF:     1 + rng.Intn(40),
			Vocab:  2 + rng.Intn(40),
			MaxSeq: 1 + rng.Intn(10),
		}
		seq := [3]int{1, cfg.MaxSeq, 1 + rng.Intn(cfg.MaxSeq)}[n%3]
		seed := rng.Int63()
		t.Run(fmt.Sprintf("%d_L%dH%dD%dF%dV%dS%d_seq%d", n, cfg.Layers, cfg.Heads, cfg.DModel, cfg.FF, cfg.Vocab, cfg.MaxSeq, seq), func(t *testing.T) {
			dev, dec := newDecoder(t, seed, cfg)
			enc := dec.TransformerEncoder
			ids := trainIDs(rand.New(rand.NewSource(seed+1)), seq, cfg.Vocab)

			y, err := enc.Forward(ids)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := enc.ForwardCPU(ids)
			for i, v := range y.ToHost() {
				if d := math.Abs(float64(v - want[i])); d > 5e-3 {
					t.Fatalf("Forward[%d] = %v, ForwardCPU %v", i, v, want[i])
				}
			}

			gen := cfg.MaxSeq - seq + 1
			got, err := dec.Generate(ids, gen)
			if err != nil {
				t.Fatal(err)
			}
			wantTok, err := dec.GenerateCPU(ids, gen)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, wantTok) {
				t.Fatalf("Generate %v, GenerateCPU %v", got, wantTok)
			}

			cpu := torch.NewCPUTrainState(enc)
			tr, err := torch.NewTransformerTrainer(dev, enc, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			devLoss, err := tr.TrainStep(ids)
			if err != nil {
				t.Fatal(err)
			}
			if cpuLoss := cpu.TrainStep(ids, 0.05); math.Abs(float64(devLoss-cpuLoss)) > 2e-2 {
				t.Fatalf("TrainStep loss %g, CPUTrainState %g", devLoss, cpuLoss)
			}
		})
	}
}
