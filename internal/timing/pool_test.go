package timing

import "testing"

func TestPoolExportedRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		out := make([]int, 16)
		p.Run(len(out), func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if p.p.workers != workers {
			t.Fatalf("pool has %d workers, want %d", p.p.workers, workers)
		}
		p.Close()
	}
}
