// Package dram models GDDR-style DRAM channels with row-buffer banks and
// open-page scheduling, and collects the per-bank efficiency/utilization
// time series that AerialVision plots in the paper's Figs. 9-14 ("DRAM
// efficiency and utilization ... as a sequence of DRAM banks"), including
// the *bank camping* pathology (§V-B) where serialized accesses pile onto
// one bank while others sit idle.
package dram

// Config describes one DRAM channel (memory partition).
type Config struct {
	NumBanks   int
	RowBytes   int // row-buffer size
	TRCD       int // activate-to-read
	TRP        int // precharge
	TCL        int // CAS latency
	TBurst     int // data-transfer cycles per access
	QueueDepth int // channel request-queue slots (full queue back-pressures arrivals)

	// FR-FCFS knobs for ServiceBatch: within a bank, a row hit may be
	// scheduled ahead of up to ReorderWindow-1 older requests, but a
	// request bypassed StarveLimit times becomes a barrier and must be
	// serviced next (the starvation bound). ReorderWindow <= 1 degrades
	// to pure in-order open-page scheduling.
	ReorderWindow int
	StarveLimit   int
}

// DefaultConfig mirrors GDDR5-ish timings at core clock.
func DefaultConfig() Config {
	return Config{
		NumBanks: 8, RowBytes: 2048,
		TRCD: 12, TRP: 12, TCL: 12, TBurst: 4,
		QueueDepth:    32,
		ReorderWindow: 8,
		StarveLimit:   4,
	}
}

// Req is one request inside a ServiceBatch call. Arrive/Addr/Write are
// inputs; Done and RowHit are written by the scheduler. The bypass count
// is scheduler-internal (FR-FCFS starvation bound).
type Req struct {
	Arrive uint64
	Addr   uint64
	Write  bool

	Done   uint64
	RowHit bool

	bypass int
}

// BankStats accumulates one bank's counters, bucketed per sample interval
// for the AerialVision-style plots.
type BankStats struct {
	BusyCycles uint64 // data-transfer (useful) cycles
	Activates  uint64
	Reads      uint64
	Writes     uint64
	RowHits    uint64
}

// Channel is one DRAM channel with per-bank state.
type Channel struct {
	cfg       Config
	bankReady []uint64 // cycle when bank can accept the next command
	openRow   []int64  // -1 = closed
	busReady  uint64   // shared data bus availability

	// queueFree is the finite request queue as an absolute-time resource:
	// slot i holds the completion cycle of the request QueueDepth commits
	// ago, so a new request cannot start before the oldest slot frees.
	queueFree []uint64
	queueHead int

	bankQ [][]*Req // per-bank scratch queues for ServiceBatch

	Banks []BankStats

	// sampling
	interval   uint64
	busySeries [][]uint64 // [bank][bucket] busy cycles
	pendSeries [][]uint64
	cmdSeries  [][]uint64 // read+write commands per bucket
}

// NewChannel builds a channel with the given sample interval (cycles per
// AerialVision bucket; 0 disables the time series).
func NewChannel(cfg Config, sampleInterval uint64) *Channel {
	ch := &Channel{
		cfg:       cfg,
		bankReady: make([]uint64, cfg.NumBanks),
		openRow:   make([]int64, cfg.NumBanks),
		Banks:     make([]BankStats, cfg.NumBanks),
		interval:  sampleInterval,
	}
	for i := range ch.openRow {
		ch.openRow[i] = -1
	}
	if cfg.QueueDepth > 0 {
		ch.queueFree = make([]uint64, cfg.QueueDepth)
	}
	if sampleInterval > 0 {
		ch.busySeries = make([][]uint64, cfg.NumBanks)
		ch.pendSeries = make([][]uint64, cfg.NumBanks)
		ch.cmdSeries = make([][]uint64, cfg.NumBanks)
	}
	return ch
}

// BankOf maps a channel-local address to a bank (bank bits above the
// burst offset so consecutive 256B chunks interleave across banks).
func (ch *Channel) BankOf(addr uint64) int {
	return int(addr / 256 % uint64(ch.cfg.NumBanks))
}

func (ch *Channel) rowOf(addr uint64) int64 {
	return int64(addr / 256 / uint64(ch.cfg.NumBanks) / uint64(ch.cfg.RowBytes/256))
}

func addToBucket(series *[][]uint64, bank int, idx uint64, v uint64) {
	s := (*series)[bank]
	for uint64(len(s)) <= idx {
		s = append(s, 0)
	}
	s[idx] += v
	(*series)[bank] = s
}

// ServiceBatch schedules a batch of requests with FR-FCFS bank ordering
// and writes each request's completion cycle into Req.Done. The batch is
// the bounded reorder window the memory partition presents each cycle (in
// canonical core/issue order), so reordering inside it is deterministic.
// Scheduling: per bank, the first row hit within ReorderWindow entries is
// preferred over the bank's oldest request unless the oldest has already
// been bypassed StarveLimit times (the starvation bound); across banks,
// the candidate with the earliest achievable data-bus slot commits first
// (ties to the lowest bank), so bank-parallel traffic interleaves on the
// shared bus the way the per-request Service path did.
func (ch *Channel) ServiceBatch(reqs []*Req) {
	if len(reqs) == 0 {
		return
	}
	if len(reqs) == 1 {
		ch.commitReq(reqs[0])
		return
	}
	if ch.bankQ == nil {
		ch.bankQ = make([][]*Req, ch.cfg.NumBanks)
	}
	for _, r := range reqs {
		r.bypass = 0
		b := ch.BankOf(r.Addr)
		ch.bankQ[b] = append(ch.bankQ[b], r)
	}
	for remaining := len(reqs); remaining > 0; remaining-- {
		bestBank, bestIdx := -1, 0
		var bestStart uint64
		for b := range ch.bankQ {
			q := ch.bankQ[b]
			if len(q) == 0 {
				continue
			}
			ci := ch.pickFRFCFS(b, q)
			_, _, ds := ch.schedTimes(b, q[ci])
			if bestBank < 0 || ds < bestStart {
				bestBank, bestIdx, bestStart = b, ci, ds
			}
		}
		q := ch.bankQ[bestBank]
		for i := 0; i < bestIdx; i++ {
			q[i].bypass++
		}
		ch.commitReq(q[bestIdx])
		copy(q[bestIdx:], q[bestIdx+1:])
		q[len(q)-1] = nil
		ch.bankQ[bestBank] = q[:len(q)-1]
	}
}

// pickFRFCFS selects the next request index for one bank's queue:
// row-hit-first within the reorder window, bounded by the head's
// starvation count.
func (ch *Channel) pickFRFCFS(bank int, q []*Req) int {
	w := ch.cfg.ReorderWindow
	if w <= 1 {
		return 0
	}
	if s := ch.cfg.StarveLimit; s > 0 && q[0].bypass >= s {
		return 0
	}
	open := ch.openRow[bank]
	if open < 0 {
		return 0
	}
	if w > len(q) {
		w = len(q)
	}
	for i := 0; i < w; i++ {
		if ch.rowOf(q[i].Addr) == open {
			return i
		}
	}
	return 0
}

// schedTimes computes, without mutating channel state, the cycle a
// request would occupy the bank command path (start), whether it row-hits
// the currently open row, and the cycle its data burst would begin.
// commitReq commits exactly these times, so the FR-FCFS cross-bank
// arbitration in ServiceBatch always compares the schedule that would
// actually be committed.
func (ch *Channel) schedTimes(bank int, r *Req) (start uint64, rowHit bool, dataStart uint64) {
	start = r.Arrive
	// finite request queue: wait for the oldest slot to free
	if len(ch.queueFree) > 0 {
		if f := ch.queueFree[ch.queueHead]; f > start {
			start = f
		}
	}
	if ch.bankReady[bank] > start {
		start = ch.bankReady[bank]
	}
	var cmd uint64
	if ch.openRow[bank] == ch.rowOf(r.Addr) {
		rowHit = true
		cmd = uint64(ch.cfg.TCL)
	} else {
		if ch.openRow[bank] >= 0 {
			cmd += uint64(ch.cfg.TRP)
		}
		cmd += uint64(ch.cfg.TRCD + ch.cfg.TCL)
	}
	dataStart = start + cmd
	if ch.busReady > dataStart {
		dataStart = ch.busReady
	}
	return start, rowHit, dataStart
}

// commitReq schedules one request against the channel's absolute-time
// resources (request-queue slot, bank, shared data bus) and records its
// completion in r.Done. Open-page policy: row hits skip ACT/PRE; the
// shared data bus serialises bursts.
func (ch *Channel) commitReq(r *Req) {
	now := r.Arrive
	bank := ch.BankOf(r.Addr)
	start, rowHit, dataStart := ch.schedTimes(bank, r)
	st := &ch.Banks[bank]
	r.RowHit = rowHit
	if rowHit {
		st.RowHits++
	} else {
		ch.openRow[bank] = ch.rowOf(r.Addr)
		st.Activates++
	}
	end := dataStart + uint64(ch.cfg.TBurst)
	ch.busReady = end
	ch.bankReady[bank] = end
	if len(ch.queueFree) > 0 {
		ch.queueFree[ch.queueHead] = end
		ch.queueHead = (ch.queueHead + 1) % len(ch.queueFree)
	}
	if r.Write {
		st.Writes++
	} else {
		st.Reads++
	}
	st.BusyCycles += uint64(ch.cfg.TBurst)
	r.Done = end

	if ch.interval > 0 {
		// burst cycles to the bucket containing dataStart
		addToBucket(&ch.busySeries, bank, dataStart/ch.interval, uint64(ch.cfg.TBurst))
		addToBucket(&ch.cmdSeries, bank, start/ch.interval, 1)
		for b := now / ch.interval; b <= end/ch.interval; b++ {
			span := ch.interval
			if b == now/ch.interval {
				span = ch.interval - now%ch.interval
			}
			if b == end/ch.interval {
				e := end % ch.interval
				if b == now/ch.interval {
					span = end - now
				} else {
					span = e
				}
			}
			addToBucket(&ch.pendSeries, bank, b, span)
		}
	}
}

// NumBanks returns the bank count.
func (ch *Channel) NumBanks() int { return ch.cfg.NumBanks }

// EfficiencySeries returns per-bank per-bucket efficiency in [0,1]: the
// paper's definition — bandwidth utilization when there is a pending
// request waiting to be processed.
func (ch *Channel) EfficiencySeries() [][]float64 {
	out := make([][]float64, ch.cfg.NumBanks)
	for b := 0; b < ch.cfg.NumBanks; b++ {
		busy := ch.busySeries[b]
		pend := ch.pendSeries[b]
		n := len(pend)
		if len(busy) > n {
			n = len(busy)
		}
		s := make([]float64, n)
		for i := 0; i < n; i++ {
			var bu, pe uint64
			if i < len(busy) {
				bu = busy[i]
			}
			if i < len(pend) {
				pe = pend[i]
			}
			if pe > 0 {
				v := float64(bu) / float64(pe)
				if v > 1 {
					v = 1
				}
				s[i] = v
			}
		}
		out[b] = s
	}
	return out
}

// UtilizationSeries returns per-bank per-bucket utilization: per the
// paper, two times the number of read and write commands per command
// cycle (normalised to the bucket width).
func (ch *Channel) UtilizationSeries() [][]float64 {
	out := make([][]float64, ch.cfg.NumBanks)
	for b := 0; b < ch.cfg.NumBanks; b++ {
		cmds := ch.cmdSeries[b]
		s := make([]float64, len(cmds))
		for i, c := range cmds {
			v := 2 * float64(c) * float64(ch.cfg.TBurst) / float64(ch.interval)
			if v > 1 {
				v = 1
			}
			s[i] = v
		}
		out[b] = s
	}
	return out
}

// Totals returns aggregate reads, writes, activates, busy cycles.
func (ch *Channel) Totals() (reads, writes, acts, busy uint64) {
	for i := range ch.Banks {
		reads += ch.Banks[i].Reads
		writes += ch.Banks[i].Writes
		acts += ch.Banks[i].Activates
		busy += ch.Banks[i].BusyCycles
	}
	return
}
