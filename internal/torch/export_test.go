package torch

import "repro/internal/ref"

// Methods only the tests call: the serial one-prompt decode the decoder
// tests compare against the CPU oracle, the embedding's host-ids forward
// and its host oracle, the decoder's causal host forward, and the
// training mirror's weights by parameter index.

// Generate greedy-decodes one prompt serially on the default stream:
// prefill, then n-1 decode steps, drain, and return the n generated
// token ids. The prompt plus generated tokens must fit the cache:
// len(prompt)+n-1 <= MaxSeq.
func (d *TransformerDecoder) Generate(prompt []int32, n int) ([]int32, error) {
	outs, err := d.GenerateBatch([][]int32{prompt}, n, false)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Forward uploads the ids and gathers their embedding rows.
func (e *Embedding) Forward(ids []int32) (*Tensor, error) {
	if err := validateTokenIDs(ids, e.Vocab); err != nil {
		return nil, err
	}
	addr, err := e.Dev.UploadLabels(ids)
	if err != nil {
		return nil, err
	}
	return e.ForwardDevice(addr, len(ids))
}

// ParamSnapshot returns the mirror's weights for parameter index i, in
// the order of TransformerEncoder.Params().
func (c *CPUTrainState) ParamSnapshot(i int) []float32 { return c.params[i].w }

// ForwardCPU is the host oracle of Embedding.Forward.
func (e *Embedding) ForwardCPU(ids []int32) ([]float32, []int) {
	return ref.EmbeddingLookup(e.Table.W.ToHost(), ids, e.Dim), []int{len(ids), e.Dim}
}

// ForwardCPU is the host oracle of the decoder's causal forward: the host
// model with causally masked attention. Without it, dec.ForwardCPU would
// resolve to the embedded encoder's unmasked one.
func (d *TransformerDecoder) ForwardCPU(ids []int32) ([]float32, []int) {
	m := newHostModel(d.TransformerEncoder)
	return m.forward(ids, true), []int{len(ids), d.Cfg.DModel}
}
