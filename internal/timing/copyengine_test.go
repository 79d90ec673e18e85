package timing

import "testing"

// TestCopyEngineCycles pins the copy engine's occupancy per transfer size
// on both shipped configs: ~12 GB/s at the core clock, rounded to the
// nearest cycle.
func TestCopyEngineCycles(t *testing.T) {
	sizes := []int{0, 1, 64, 4096, 100_000, 1 << 20}
	for _, c := range []struct {
		cfg  Config
		want []uint64
	}{
		{GTX1050(), []uint64{0, 0, 7, 475, 11600, 121635}},
		{GTX1080Ti(), []uint64{0, 0, 8, 506, 12342, 129412}},
	} {
		t.Run(c.cfg.Name, func(t *testing.T) {
			eng, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tickets := make([]*Ticket, len(sizes))
			for i, n := range sizes {
				tickets[i] = eng.SubmitCopy(0, n, nil)
			}
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
			for i, tk := range tickets {
				st, err := tk.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Cycles != c.want[i] {
					t.Errorf("%d bytes: %d cycles, want %d", sizes[i], st.Cycles, c.want[i])
				}
			}
		})
	}
}
