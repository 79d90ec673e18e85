package dram

import (
	"testing"
	"testing/quick"
)

// Service schedules one request arriving at cycle now and returns its
// completion cycle: a batch of one, with no reordering opportunity.
func (ch *Channel) Service(now uint64, addr uint64, write bool) uint64 {
	r := Req{Arrive: now, Addr: addr, Write: write}
	ch.commitReq(&r)
	return r.Done
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	ch := NewChannel(DefaultConfig(), 0)
	// first access opens the row
	e1 := ch.Service(0, 0x0, false)
	// same row: CAS only
	e2 := ch.Service(e1, 0x40, false)
	// different row, same bank: precharge + activate + CAS
	cfg := DefaultConfig()
	far := uint64(cfg.RowBytes) * uint64(cfg.NumBanks) * 256
	e3 := ch.Service(e2, far, false)
	hitLat := e2 - e1
	missLat := e3 - e2
	if hitLat >= missLat {
		t.Fatalf("row hit (%d) not faster than row miss (%d)", hitLat, missLat)
	}
	r, _, acts, _ := ch.Totals()
	if r != 3 || acts != 2 {
		t.Fatalf("reads=%d acts=%d, want 3 reads 2 activates", r, acts)
	}
}

func TestBankParallelismBeatsBankCamping(t *testing.T) {
	// The paper's §V-B phenomenon: requests hammering one bank serialise;
	// spread across banks they overlap.
	camped := NewChannel(DefaultConfig(), 0)
	var endCamped uint64
	for i := 0; i < 8; i++ {
		// same bank, different rows -> worst case
		addr := uint64(i) * uint64(DefaultConfig().RowBytes) * uint64(DefaultConfig().NumBanks) * 256
		endCamped = camped.Service(0, addr, false)
	}
	spread := NewChannel(DefaultConfig(), 0)
	var endSpread uint64
	for i := 0; i < 8; i++ {
		addr := uint64(i) * 256 // consecutive banks
		e := spread.Service(0, addr, false)
		if e > endSpread {
			endSpread = e
		}
	}
	if endSpread >= endCamped {
		t.Fatalf("bank-parallel completion %d not faster than camped %d", endSpread, endCamped)
	}
}

func TestEfficiencyAndUtilizationSeries(t *testing.T) {
	ch := NewChannel(DefaultConfig(), 100)
	for i := 0; i < 32; i++ {
		ch.Service(uint64(i*10), uint64(i)*256, i%4 == 0)
	}
	eff := ch.EfficiencySeries()
	util := ch.UtilizationSeries()
	if len(eff) != ch.NumBanks() || len(util) != ch.NumBanks() {
		t.Fatalf("series bank counts: %d/%d", len(eff), len(util))
	}
	var any float64
	for b := range eff {
		for _, v := range eff[b] {
			if v < 0 || v > 1 {
				t.Fatalf("efficiency %v out of range", v)
			}
			any += v
		}
		for _, v := range util[b] {
			if v < 0 || v > 1 {
				t.Fatalf("utilization %v out of range", v)
			}
		}
	}
	if any == 0 {
		t.Fatal("efficiency series empty despite traffic")
	}
}

// Property: completion times never precede arrival, and the data bus
// never double-books (monotone completion per issue order on one bank).
func TestServiceOrderingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		ch := NewChannel(DefaultConfig(), 0)
		now := uint64(0)
		lastEnd := map[int]uint64{}
		for _, a := range addrs {
			addr := uint64(a) * 64
			end := ch.Service(now, addr, false)
			if end <= now {
				return false
			}
			b := ch.BankOf(addr)
			if end < lastEnd[b] {
				return false // per-bank completions must be monotone
			}
			lastEnd[b] = end
			now += 2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sameBankAddr returns the i-th address on bank `bank`, advancing one
// row per step (the row-thrash stride).
func sameBankAddr(cfg Config, bank, i int) uint64 {
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.NumBanks)
	return uint64(bank)*256 + uint64(i)*rowStride
}

// TestSchedulingEdgeCases is the table-driven pass over the §V-B
// pathologies and the FR-FCFS scheduler's bounds.
func TestSchedulingEdgeCases(t *testing.T) {
	t.Run("row_buffer_thrash", func(t *testing.T) {
		// alternating rows on one bank: every access activates, none hit
		ch := NewChannel(DefaultConfig(), 0)
		for i := 0; i < 16; i++ {
			ch.Service(uint64(i), sameBankAddr(ch.cfg, 0, i%2*3), false)
		}
		_, _, acts, _ := ch.Totals()
		if acts != 16 || ch.Banks[0].RowHits != 0 {
			t.Fatalf("thrash: activates=%d rowhits=%d, want 16/0", acts, ch.Banks[0].RowHits)
		}
	})

	t.Run("bank_camping_slower_than_spread", func(t *testing.T) {
		// batch API twin of TestBankParallelismBeatsBankCamping
		camped := NewChannel(DefaultConfig(), 0)
		var campReqs []*Req
		for i := 0; i < 8; i++ {
			campReqs = append(campReqs, &Req{Addr: sameBankAddr(camped.cfg, 0, i)})
		}
		camped.ServiceBatch(campReqs)
		spread := NewChannel(DefaultConfig(), 0)
		var spreadReqs []*Req
		for i := 0; i < 8; i++ {
			spreadReqs = append(spreadReqs, &Req{Addr: uint64(i) * 256})
		}
		spread.ServiceBatch(spreadReqs)
		campEnd, spreadEnd := uint64(0), uint64(0)
		for i := range campReqs {
			if campReqs[i].Done > campEnd {
				campEnd = campReqs[i].Done
			}
			if spreadReqs[i].Done > spreadEnd {
				spreadEnd = spreadReqs[i].Done
			}
		}
		if spreadEnd >= campEnd {
			t.Fatalf("bank-parallel batch %d not faster than camped batch %d", spreadEnd, campEnd)
		}
	})

	t.Run("full_queue_backpressure", func(t *testing.T) {
		// same-cycle bank-parallel traffic: with queue slots to spare the
		// banks overlap; with a 2-deep queue request i cannot start before
		// request i-2 completed, serialising the same traffic
		mkReqs := func() []*Req {
			var reqs []*Req
			for i := 0; i < 16; i++ {
				reqs = append(reqs, &Req{Addr: uint64(i%8) * 256})
			}
			return reqs
		}
		wide := DefaultConfig()
		deep := mkReqs()
		NewChannel(wide, 0).ServiceBatch(deep)
		narrow := DefaultConfig()
		narrow.QueueDepth = 2
		shallow := mkReqs()
		NewChannel(narrow, 0).ServiceBatch(shallow)
		last := func(reqs []*Req) uint64 {
			var m uint64
			for _, r := range reqs {
				if r.Done > m {
					m = r.Done
				}
			}
			return m
		}
		if last(shallow) <= last(deep) {
			t.Fatalf("2-deep queue finished at %d, not later than %d-deep queue at %d",
				last(shallow), wide.QueueDepth, last(deep))
		}
	})

	t.Run("frfcfs_row_hit_first", func(t *testing.T) {
		cfg := DefaultConfig()
		ch := NewChannel(cfg, 0)
		ch.Service(0, sameBankAddr(cfg, 0, 0), false) // open row 0 on bank 0
		// row 0's chunks on bank 0 sit 256*NumBanks bytes apart (256B
		// chunks interleave across banks)
		chunk := uint64(256 * cfg.NumBanks)
		miss := &Req{Addr: sameBankAddr(cfg, 0, 5)}
		hit := &Req{Addr: sameBankAddr(cfg, 0, 0) + chunk} // row 0, next chunk
		ch.ServiceBatch([]*Req{miss, hit})
		if !hit.RowHit {
			t.Fatal("open-row request not detected as a row hit")
		}
		if hit.Done >= miss.Done {
			t.Fatalf("row hit (done %d) not scheduled before older row miss (done %d)", hit.Done, miss.Done)
		}

		// window 1 degrades to in-order: the older miss goes first
		inorder := cfg
		inorder.ReorderWindow = 1
		ch2 := NewChannel(inorder, 0)
		ch2.Service(0, sameBankAddr(cfg, 0, 0), false)
		miss2 := &Req{Addr: sameBankAddr(cfg, 0, 5)}
		hit2 := &Req{Addr: sameBankAddr(cfg, 0, 0) + chunk}
		ch2.ServiceBatch([]*Req{miss2, hit2})
		if miss2.Done >= hit2.Done {
			t.Fatalf("window=1 must service in order: miss done %d, later row-hit done %d", miss2.Done, hit2.Done)
		}
	})

	t.Run("frfcfs_starvation_bound", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ReorderWindow = 16
		cfg.StarveLimit = 3
		ch := NewChannel(cfg, 0)
		ch.Service(0, sameBankAddr(cfg, 0, 0), false) // open row 0
		head := &Req{Addr: sameBankAddr(cfg, 0, 9)}
		reqs := []*Req{head}
		// the remaining 7 chunks of row 0 on bank 0, all row hits queued
		// behind the row-miss head
		chunk := uint64(256 * cfg.NumBanks)
		for i := 0; i < 7; i++ {
			reqs = append(reqs, &Req{Addr: sameBankAddr(cfg, 0, 0) + uint64(i+1)*chunk})
		}
		ch.ServiceBatch(reqs)
		bypassed := 0
		for _, r := range reqs[1:] {
			if r.Done < head.Done {
				bypassed++
			}
		}
		if bypassed > cfg.StarveLimit {
			t.Fatalf("oldest request bypassed by %d row hits, starvation bound is %d", bypassed, cfg.StarveLimit)
		}
		if bypassed == 0 {
			t.Fatal("no reordering happened at all — FR-FCFS inactive")
		}
	})
}

// TestBatchNoCompletionBeforeArrival is the monotonicity property of the
// absolute-time resource model: whatever the batch shape, queue pressure
// or reordering, no request's completion may precede its arrival (and
// each needs at least a burst).
func TestBatchNoCompletionBeforeArrival(t *testing.T) {
	f := func(addrs []uint16, arrivals []uint16, depth uint8) bool {
		cfg := DefaultConfig()
		cfg.QueueDepth = int(depth%8) + 1
		ch := NewChannel(cfg, 0)
		var reqs []*Req
		for i, a := range addrs {
			arrive := uint64(0)
			if i < len(arrivals) {
				arrive = uint64(arrivals[i])
			}
			reqs = append(reqs, &Req{Arrive: arrive, Addr: uint64(a) * 64, Write: i%3 == 0})
		}
		ch.ServiceBatch(reqs)
		for _, r := range reqs {
			if r.Done < r.Arrive+uint64(cfg.TBurst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBatchDeterminism double-runs one batch shape and demands identical
// schedules — the partition drain depends on it.
func TestBatchDeterminism(t *testing.T) {
	run := func() []uint64 {
		ch := NewChannel(DefaultConfig(), 0)
		var reqs []*Req
		for i := 0; i < 64; i++ {
			reqs = append(reqs, &Req{Arrive: uint64(i % 7), Addr: uint64(i*37%256) * 256, Write: i%5 == 0})
		}
		ch.ServiceBatch(reqs)
		out := make([]uint64, len(reqs))
		for i, r := range reqs {
			out[i] = r.Done
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch schedule not deterministic at request %d: %d vs %d", i, a[i], b[i])
		}
	}
}
