// Package cache implements the set-associative cache model used for the
// per-SM L1 data caches and the per-memory-partition L2 slices of the
// timing model, with LRU replacement and MSHR-based miss merging.
package cache

import "fmt"

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	MSHRs     int // distinct outstanding miss lines
	WriteBack bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineBytes == 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line %d x assoc %d",
			c.SizeBytes, c.LineBytes, c.Assoc)
	}
	return nil
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// AccessResult describes the outcome of a cache access.
type AccessResult int

// Access outcomes.
const (
	Hit AccessResult = iota
	Miss
	// MissMerged means the line is already being fetched; the access
	// piggybacks on an existing MSHR and no new memory request is needed.
	MissMerged
	// ReservationFail means all MSHRs are busy; the access must be
	// retried later (a structural stall).
	ReservationFail
)

// Stats accumulates cache statistics.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// Cache is a set-associative cache with MSHRs.
type Cache struct {
	cfg   Config
	sets  [][]line
	nsets int
	tick  uint64
	mshrs map[uint64]int // line address -> merged count
	Stats Stats
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	return &Cache{cfg: cfg, sets: sets, nsets: nsets, mshrs: make(map[uint64]int)}, nil
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	return int(lineAddr % uint64(c.nsets)), lineAddr / uint64(c.nsets)
}

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// Access performs a read (or write-allocate on write-back caches) lookup.
// On Miss, the caller must fetch the line and later call Fill; writeback
// of an evicted dirty line is signalled by the second return value.
func (c *Cache) Access(addr uint64, write bool) (AccessResult, bool) {
	c.tick++
	c.Stats.Accesses++
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			if write {
				if c.cfg.WriteBack {
					l.dirty = true
				}
			}
			c.Stats.Hits++
			return Hit, false
		}
	}
	// Write-through no-allocate for non-write-back caches: a write miss
	// goes straight to the next level without reserving an MSHR.
	if write && !c.cfg.WriteBack {
		c.Stats.Misses++
		return Miss, false
	}
	lineAddr := c.LineAddr(addr)
	if _, pending := c.mshrs[lineAddr]; pending {
		c.mshrs[lineAddr]++
		return MissMerged, false
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		return ReservationFail, false
	}
	c.mshrs[lineAddr] = 1
	c.Stats.Misses++
	return Miss, false
}

// Fill installs a fetched line and clears its MSHR. It reports whether an
// evicted dirty line must be written back and, when so, the victim line's
// address — the memory system turns that into real writeback traffic on
// the DRAM channel instead of letting the eviction silently vanish.
func (c *Cache) Fill(addr uint64, write bool) (writeback bool, victimAddr uint64) {
	lineAddr := c.LineAddr(addr)
	delete(c.mshrs, lineAddr)
	set, tag := c.index(addr)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if !l.valid {
			victim = i
			oldest = 0
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = i
		}
	}
	v := &c.sets[set][victim]
	writeback = v.valid && v.dirty
	if writeback {
		victimAddr = (v.tag*uint64(c.nsets) + uint64(set)) * uint64(c.cfg.LineBytes)
	}
	c.tick++
	*v = line{valid: true, tag: tag, lru: c.tick, dirty: write && c.cfg.WriteBack}
	return writeback, victimAddr
}
