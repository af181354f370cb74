// Package cache models the processor cache hierarchy of a DASH node: a
// primary (L1) and an inclusive secondary (L2) set-associative cache with
// MSI states, LRU replacement within a set, writeback of dirty victims and
// silent drop of shared victims.
//
// Addresses are pre-divided block numbers: the machine layer converts byte
// addresses to blocks before touching the caches.
package cache

import "fmt"

// State is an MSI cache line state.
type State uint8

const (
	// Invalid means no copy is present.
	Invalid State = iota
	// Shared means a clean copy is present; reads hit, writes need
	// ownership.
	Shared
	// Dirty means this cache holds the only, modified copy.
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Dirty:
		return "D"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// line is one cache way. Fields run widest first so a line packs into
// 24 bytes.
type line struct {
	block   int64
	lastUse uint64
	valid   bool
	state   State
}

// pageSets is the number of consecutive sets stored together in one
// page. A page is allocated on the first Fill into any of its sets, so
// a cache's memory grows with the sets a run touches rather than with
// its capacity.
const pageSets = 128

// Cache is a single set-associative cache level.
type Cache struct {
	sets  int
	assoc int
	pages [][]line // pageSets*assoc lines each (the last may be short); nil until first filled
}

// GeometryError reports an impossible cache geometry — the typed form of
// the constructor panics, returned by Config.Validate so user-supplied
// sizes fail with a message instead of a stack trace.
type GeometryError struct {
	Level  string // "L1" or "L2" (empty for a bare cache)
	Size   int
	Block  int
	Assoc  int
	Reason string
}

func (e *GeometryError) Error() string {
	if e.Level != "" {
		return fmt.Sprintf("cache: %s: %s", e.Level, e.Reason)
	}
	return "cache: " + e.Reason
}

// checkGeometry validates one cache level's geometry, mirroring the
// NewCache panic conditions.
func checkGeometry(level string, sizeBytes, blockBytes, assoc int) error {
	bad := func(reason string) error {
		return &GeometryError{Level: level, Size: sizeBytes, Block: blockBytes, Assoc: assoc, Reason: reason}
	}
	if sizeBytes <= 0 || blockBytes <= 0 || assoc <= 0 {
		return bad(fmt.Sprintf("size (%d), block (%d) and associativity (%d) must all be positive", sizeBytes, blockBytes, assoc))
	}
	nlines := sizeBytes / blockBytes
	if nlines == 0 || nlines%assoc != 0 {
		return bad(fmt.Sprintf("%d bytes / %d-byte blocks not divisible into %d-way sets", sizeBytes, blockBytes, assoc))
	}
	return nil
}

// NewCache builds a cache of sizeBytes with blockBytes lines and the given
// associativity. sizeBytes must be a multiple of blockBytes*assoc.
func NewCache(sizeBytes, blockBytes, assoc int) *Cache {
	if sizeBytes <= 0 || blockBytes <= 0 || assoc <= 0 {
		panic("cache: sizes must be positive")
	}
	nlines := sizeBytes / blockBytes
	if nlines == 0 || nlines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d bytes / %d-byte blocks not divisible into %d-way sets", sizeBytes, blockBytes, assoc))
	}
	sets := nlines / assoc
	return &Cache{sets: sets, assoc: assoc, pages: make([][]line, (sets+pageSets-1)/pageSets)}
}

// Lines returns the total number of cache lines.
func (c *Cache) Lines() int { return c.sets * c.assoc }

// fillSet returns block's set, allocating its page on first use.
func (c *Cache) fillSet(block int64) []line {
	si := int(uint64(block) % uint64(c.sets))
	pi := si / pageSets
	if c.pages[pi] == nil {
		c.pages[pi] = make([]line, min(pageSets, c.sets-pi*pageSets)*c.assoc)
	}
	off := (si % pageSets) * c.assoc
	return c.pages[pi][off : off+c.assoc]
}

func (c *Cache) find(block int64) *line {
	si := uint(uint64(block) % uint64(c.sets))
	page := c.pages[si/pageSets]
	// An unfilled page is nil, so the loop never runs. (The loop indexes
	// the page directly, not a set slice, to keep find inlinable.)
	off := int(si%pageSets) * c.assoc
	for i := off; i < off+c.assoc && i < len(page); i++ {
		if page[i].valid && page[i].block == block {
			return &page[i]
		}
	}
	return nil
}

// State returns the line state for block (Invalid if absent).
func (c *Cache) State(block int64) State {
	if l := c.find(block); l != nil {
		return l.state
	}
	return Invalid
}

// Touch refreshes the LRU position of block if present.
func (c *Cache) Touch(block int64, now uint64) {
	if l := c.find(block); l != nil {
		l.lastUse = now
	}
}

// SetState changes the state of a present line; it panics if absent, since
// that indicates a protocol bug.
func (c *Cache) SetState(block int64, s State) {
	l := c.find(block)
	if l == nil {
		panic(fmt.Sprintf("cache: SetState(%d) on absent block", block))
	}
	l.state = s
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Valid bool
	Block int64
	Dirty bool
}

// Fill installs block with state st, evicting the LRU line of the set if
// needed, and returns the displaced victim (Victim.Valid false if a free
// way was used). Filling an already-present block just updates its state.
func (c *Cache) Fill(block int64, st State, now uint64) Victim {
	set := c.fillSet(block)
	vi := -1
	for i := range set {
		if !set[i].valid {
			if vi < 0 {
				vi = i
			}
		} else if set[i].block == block {
			set[i].state = st
			set[i].lastUse = now
			return Victim{}
		}
	}
	var v Victim
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[vi].lastUse {
				vi = i
			}
		}
		v = Victim{Valid: true, Block: set[vi].block, Dirty: set[vi].state == Dirty}
	}
	set[vi] = line{valid: true, block: block, state: st, lastUse: now}
	return v
}

// Invalidate removes block and reports its previous presence and dirtiness.
func (c *Cache) Invalidate(block int64) (present, dirty bool) {
	if l := c.find(block); l != nil {
		present, dirty = true, l.state == Dirty
		l.valid = false
	}
	return present, dirty
}

// Downgrade turns a Dirty line Shared, reporting whether it was dirty.
func (c *Cache) Downgrade(block int64) (wasDirty bool) {
	if l := c.find(block); l != nil && l.state == Dirty {
		l.state = Shared
		return true
	}
	return false
}

// ForEach calls fn for every valid line in set order (used by coherence
// validators).
func (c *Cache) ForEach(fn func(block int64, st State)) {
	for _, page := range c.pages {
		for i := range page {
			if page[i].valid {
				fn(page[i].block, page[i].state)
			}
		}
	}
}

// Occupancy returns the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	c.ForEach(func(int64, State) { n++ })
	return n
}
