package torch_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/session"
	"repro/internal/timing"
	"repro/internal/torch"
)

// transformer module differential tests: simulated Forward vs the
// ForwardCPU host oracle for every new module, functional mode.

func randInput(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	return x
}

func TestLayerNormForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct{ rows, dim int }{{1, 1}, {3, 8}, {4, 33}} {
		ln, err := torch.NewLayerNorm(dev, c.dim)
		if err != nil {
			t.Fatal(err)
		}
		x := randInput(rng, c.rows*c.dim)
		moduleVsCPU(t, dev, ln, x, []int{c.rows, c.dim}, 1e-3)
	}
}

func TestGELUForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	x := []float32{-6, -2, -0.5, -0.044715, 0, 0.25, 1, 3, 8}
	moduleVsCPU(t, dev, &torch.GELU{Dev: dev}, x, []int{1, len(x)}, 1e-4)
}

func TestMultiHeadAttentionForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(43))
	for _, c := range []struct{ seq, heads, dm int }{{1, 1, 4}, {6, 2, 8}, {5, 3, 15}} {
		attn, err := torch.NewMultiHeadAttention(dev, rng, c.heads, c.dm)
		if err != nil {
			t.Fatal(err)
		}
		x := randInput(rng, c.seq*c.dm)
		moduleVsCPU(t, dev, attn, x, []int{c.seq, c.dm}, 2e-3)
	}
}

func TestTransformerBlockForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(44))
	blk, err := torch.NewTransformerBlock(dev, rng, 2, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 5*8)
	moduleVsCPU(t, dev, blk, x, []int{5, 8}, 5e-3)
}

func TestEmbeddingForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(45))
	emb, err := torch.NewEmbedding(dev, rng, 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int32{0, 10, 3, 3, 7}
	y, err := emb.Forward(ids)
	if err != nil {
		t.Fatal(err)
	}
	want, shape := emb.ForwardCPU(ids)
	if y.Count() != len(want) || shape[0] != len(ids) || shape[1] != 6 {
		t.Fatalf("shape mismatch: %v vs %v", y.Shape, shape)
	}
	got := y.ToHost()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("embedding[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransformerEncoderForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(46))
	enc, err := torch.NewTransformerEncoder(dev, rng, torch.TransformerConfig{
		Layers: 2, Heads: 2, DModel: 8, FF: 16, Vocab: 17, MaxSeq: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int32{1, 16, 4, 9, 0, 2}
	y, err := enc.Forward(ids)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := enc.ForwardCPU(ids)
	got := y.ToHost()
	if len(got) != len(want) {
		t.Fatalf("output size %d, oracle %d", len(got), len(want))
	}
	for i := range want {
		d := got[i] - want[i]
		if d < -5e-3 || d > 5e-3 {
			t.Fatalf("encoder mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if got := len(enc.Params()); got == 0 {
		t.Fatal("encoder reports no parameters")
	}
}

// TestTransformerForwardBatchRepeats runs several concurrent batches on
// one encoder: per-batch streams are single-use (destroyed after the
// drain), so repeated inference must keep working and stay stable.
func TestTransformerForwardBatchRepeats(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(48))
	enc, err := torch.NewTransformerEncoder(dev, rng, torch.TransformerConfig{
		Layers: 1, Heads: 2, DModel: 8, FF: 16, Vocab: 13, MaxSeq: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]int32{{1, 5, 9}, {12, 0, 3}}
	first, err := enc.ForwardBatch(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := enc.ForwardBatch(batch, true)
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		for s := range got {
			for j := range got[s] {
				if got[s][j] != first[s][j] {
					t.Fatalf("repeat %d seq %d: output drifted at %d", i, s, j)
				}
			}
		}
	}
}

// TestOnStreamsFailedChain makes chain 1 of 3 fail on a device with the
// detailed engine behind it, where chain 0's launch really is queued:
// the error comes back, the handle is on the default stream again, the
// streams created so far are destroyed (which drains chain 0), and the
// device serves a following batch exactly as a fresh one does.
func TestOnStreamsFailedChain(t *testing.T) {
	cfg := torch.TransformerConfig{Layers: 1, Heads: 2, DModel: 8, FF: 16, Vocab: 13, MaxSeq: 6}
	batch := [][]int32{{1, 5, 9}, {12, 0, 3}, {4, 4}}
	rig := func() (*session.Session, *torch.TransformerEncoder) {
		t.Helper()
		s, err := session.New(timing.GTX1050(), 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		enc, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(48)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, enc
	}
	s, enc := rig()
	dev := s.Dev
	x, err := dev.FromHost(randInput(rand.New(rand.NewSource(50)), 64), 64)
	if err != nil {
		t.Fatal(err)
	}
	y, err := dev.NewTensor(64)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("chain 1 cannot be issued")
	var created []cudart.Stream
	err = dev.OnStreams(3, true, func(i int) error {
		created = append(created, dev.H.Stream())
		if i == 1 {
			return boom
		}
		return dev.H.GeluForward(x.Ptr, y.Ptr, 64)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("OnStreams returned %v, want the failed chain's error", err)
	}
	if len(created) != 2 {
		t.Fatalf("%d chains issued, want 2 (nothing after the failed one)", len(created))
	}
	if got := dev.H.Stream(); got != cudart.DefaultStream {
		t.Fatalf("handle left on stream %d, want the default stream", got)
	}
	if s.Eng.Cycle() == 0 {
		t.Fatal("chain 0 is still queued: the engine has not run a cycle")
	}
	for _, st := range created {
		if st == cudart.DefaultStream {
			t.Fatal("a concurrent chain was issued on the default stream")
		}
		if err := dev.Ctx.StreamSynchronize(st); err == nil || !strings.Contains(err.Error(), "invalid stream handle") {
			t.Fatalf("StreamSynchronize(%d) = %v, want an invalid-handle error (stream destroyed)", st, err)
		}
	}

	got, err := enc.ForwardBatch(batch, true)
	if err != nil {
		t.Fatalf("ForwardBatch after the failed chains: %v", err)
	}
	_, fresh := rig()
	want, err := fresh.ForwardBatch(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("seq %d output[%d] = %v after the failed chains, %v on a fresh device", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTransformerRejectsBadTokenIDs pins the host-side bounds check: the
// gather kernel itself has none, so out-of-range ids must fail fast.
func TestTransformerRejectsBadTokenIDs(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(49))
	emb, err := torch.NewEmbedding(dev, rng, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := torch.NewTransformerEncoder(dev, rng, torch.TransformerConfig{
		Layers: 1, Heads: 1, DModel: 4, FF: 8, Vocab: 7, MaxSeq: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]int32{{7}, {-1}, {0, 99}} {
		if _, err := emb.Forward(ids); err == nil {
			t.Fatalf("Embedding.Forward accepted out-of-range ids %v", ids)
		}
		if _, err := enc.Forward(ids); err == nil {
			t.Fatalf("Encoder.Forward accepted out-of-range ids %v", ids)
		}
		if _, err := enc.ForwardBatch([][]int32{ids}, true); err == nil {
			t.Fatalf("ForwardBatch accepted out-of-range ids %v", ids)
		}
	}
}

// TestTransformerBackwardRequiresGrads pins the lazy-gradient contract:
// modules with parameters refuse Backward until EnsureGrads has
// allocated their gradient buffers, instead of scribbling on nil
// pointers.
func TestTransformerBackwardRequiresGrads(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(47))
	ln, err := torch.NewLayerNorm(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := torch.NewTransformerBlock(dev, rng, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dev.FromHost(randInput(rng, 2*4), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	type trainable interface {
		Forward(*torch.Tensor) (*torch.Tensor, error)
		Backward(*torch.Tensor) (*torch.Tensor, error)
		Params() []*torch.Param
	}
	mods := []trainable{ln, blk}
	for _, m := range mods {
		if _, err := m.Forward(x); err != nil {
			t.Fatalf("%T.Forward: %v", m, err)
		}
		if _, err := m.Backward(x); err == nil {
			t.Fatalf("%T.Backward without gradient buffers did not error", m)
		}
	}
	// EnsureGrads unlocks training on the same modules
	for _, m := range mods {
		if err := torch.EnsureGrads(dev, m.Params()); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Backward(x); err != nil {
			t.Fatalf("%T.Backward after EnsureGrads: %v", m, err)
		}
	}
}
