package torch

// Methods only the tests call: the serial one-prompt decode the decoder
// tests compare against the CPU oracle, the embedding's host-ids forward
// and the training mirror's weights by parameter index.

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
// the same order as TransformerEncoder.Params(): table, pos, then per
// block ln1.γ/β, q/k/v/o weight+bias, ln2.γ/β, fc1 and fc2 weight+bias,
// and finally the last norm's γ/β.
func (c *CPUTrainState) ParamSnapshot(i int) []float32 {
	var all [][]float32
	all = append(all, c.table, c.pos)
	for _, b := range c.blocks {
		all = append(all, b.ln1.g, b.ln1.b,
			b.q.w, b.q.b, b.k.w, b.k.b, b.v.w, b.v.b, b.o.w, b.o.b,
			b.ln2.g, b.ln2.b, b.fc1.w, b.fc1.b, b.fc2.w, b.fc2.b)
	}
	all = append(all, c.final.g, c.final.b)
	return all[i]
}
