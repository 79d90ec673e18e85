package cache

import (
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallCfg() Config {
	return Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, MSHRs: 4}
}

func TestHitAfterFill(t *testing.T) {
	c := mustCache(t, smallCfg())
	if r, _ := c.Access(0x1000, false); r != Miss {
		t.Fatalf("cold access = %v, want Miss", r)
	}
	c.Fill(0x1000, false)
	if r, _ := c.Access(0x1000, false); r != Hit {
		t.Fatalf("post-fill access = %v, want Hit", r)
	}
	// same line, different offset
	if r, _ := c.Access(0x1020, false); r != Hit {
		t.Fatalf("same-line access = %v, want Hit", r)
	}
}

func TestMSHRMergeAndFail(t *testing.T) {
	c := mustCache(t, smallCfg())
	if r, _ := c.Access(0x1000, false); r != Miss {
		t.Fatal("want Miss")
	}
	if r, _ := c.Access(0x1000, false); r != MissMerged {
		t.Fatal("second miss to same line must merge")
	}
	// exhaust MSHRs with distinct lines
	c.Access(0x2000, false)
	c.Access(0x3000, false)
	c.Access(0x4000, false)
	if r, _ := c.Access(0x5000, false); r != ReservationFail {
		t.Fatalf("5th outstanding line = %v, want ReservationFail", r)
	}
	c.Fill(0x1000, false)
	if r, _ := c.Access(0x5000, false); r != Miss {
		t.Fatalf("after fill = %v, want Miss (MSHR freed)", r)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, smallCfg()) // 8 sets, 2 ways
	// three lines mapping to the same set (stride = nsets*line = 512)
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	c.Access(a, false)
	c.Fill(a, false)
	c.Access(b, false)
	c.Fill(b, false)
	c.Access(a, false) // touch a so b is LRU
	c.Access(d, false)
	c.Fill(d, false) // evicts b
	if r, _ := c.Access(a, false); r != Hit {
		t.Fatal("a should have survived")
	}
	if r, _ := c.Access(b, false); r == Hit {
		t.Fatal("b should have been evicted")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := smallCfg()
	cfg.WriteBack = true
	c := mustCache(t, cfg)
	c.Access(0x0000, true)
	wb, _ := c.Fill(0x0000, true) // dirty line installed
	if wb {
		t.Fatal("filling into an empty way must not write back")
	}
	c.Access(0x0200, false)
	c.Fill(0x0200, false)
	c.Access(0x0400, false)
	wb, victim := c.Fill(0x0400, false)
	if !wb {
		t.Fatal("evicting the dirty line must signal a writeback")
	}
	if victim != 0x0000 {
		t.Fatalf("writeback victim address = %#x, want %#x (the dirty line)", victim, 0x0000)
	}
}

// TestWritebackVictimAddress pins the victim-address reconstruction from
// (tag, set) across several sets and offsets: the address handed to the
// DRAM writeback path must be the line base of the evicted line.
func TestWritebackVictimAddress(t *testing.T) {
	cfg := smallCfg() // 8 sets x 64B lines x 2 ways
	cfg.WriteBack = true
	for _, base := range []uint64{0x00C0, 0x1040, 0x7FC0} {
		c := mustCache(t, cfg)
		c.Access(base+7, true) // dirty, unaligned offset inside the line
		c.Fill(base+7, true)
		// two more lines in the same set evict the dirty one (assoc 2)
		for i := uint64(1); i <= 2; i++ {
			c.Access(base+i*512, false)
			wb, victim := c.Fill(base+i*512, false)
			if i == 2 {
				if !wb {
					t.Fatalf("base %#x: dirty line not evicted", base)
				}
				if want := base &^ 63; victim != want {
					t.Fatalf("base %#x: victim = %#x, want line base %#x", base, victim, want)
				}
			}
		}
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := mustCache(t, smallCfg())
	if r, _ := c.Access(0x1000, true); r != Miss {
		t.Fatal("write miss expected")
	}
	if got := len(c.mshrs); got != 0 {
		t.Fatalf("write-through miss must not reserve an MSHR, got %d", got)
	}
}

// Property: after Fill(addr), Access(addr) hits, for arbitrary addresses.
func TestFillThenHitProperty(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 4096, LineBytes: 128, Assoc: 4, MSHRs: 8})
	f := func(raw uint32) bool {
		addr := uint64(raw)
		r, _ := c.Access(addr, false)
		if r == Miss {
			c.Fill(addr, false)
		}
		if r == ReservationFail {
			return true // structural stall: nothing to assert
		}
		r2, _ := c.Access(addr, false)
		return r2 == Hit || r2 == MissMerged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{SizeBytes: 1000, LineBytes: 64, Assoc: 3}); err == nil {
		t.Fatal("non-divisible geometry must be rejected")
	}
}

func TestStats(t *testing.T) {
	c := mustCache(t, smallCfg())
	c.Access(0x0, false)
	c.Fill(0x0, false)
	c.Access(0x0, false)
	st := c.Stats
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
