// Package cache models a set-associative, write-back L1 data cache.
//
// Deliberately, the cache has no notion of speculation: no Speculative bit
// per line, no per-word access bits, no version IDs in the tags. That is the
// central simplification the Bulk paper claims (Section 4.5: "we keep the
// cache unmodified relative to a non-speculative system"); everything
// speculative is tracked outside the cache, in the Bulk Disambiguation
// Module's signatures and cache-set bitmask registers.
package cache

import (
	"fmt"
	"math/bits"
)

// LineAddr is a cache-line-granularity address.
type LineAddr uint64

// State is the coherence-visible state of a cache line.
type State uint8

const (
	// Invalid: the way holds no line.
	Invalid State = iota
	// Clean: present, consistent with memory.
	Clean
	// Dirty: present, modified relative to memory. Whether a dirty line is
	// speculative is not recorded here — the BDM knows via δ(W) bitmasks.
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Clean:
		return "Clean"
	case Dirty:
		return "Dirty"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache way's content. Callers get pointers into the cache's
// backing array and may read fields; state changes should go through the
// cache methods so statistics stay consistent.
//
//bulklint:snapstate
type Line struct {
	Addr  LineAddr
	State State
	// Data carries the line's word values when the cache was built with
	// wordsPerLine > 0 (nil otherwise). The cache never interprets it; the
	// simulator's functional layer uses it so that stale-line bugs in the
	// protocols are observable as wrong values rather than silently hidden.
	//
	// Data is cache-owned storage: a way gets its buffer from the cache's
	// arena the first time it is filled and keeps it across evictions and
	// invalidations, so a fill never allocates once the way is warm. The
	// words of a freshly inserted line are stale until the caller writes
	// them; nothing may read an Invalid way's Data.
	Data []uint64
	lru  uint64
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.State != Invalid }

// Evicted describes a line displaced by an insertion. State is Invalid
// when the insertion displaced nothing.
type Evicted struct {
	Addr  LineAddr
	State State
}

// Stats counts cache events. All counters are cumulative.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invals      uint64
}

// Cache is a set-associative cache. Not safe for concurrent use; the
// simulator serializes accesses.
//
// The cache maintains per-set occupancy summaries incrementally: a
// valid/dirty line count per set and a bit-per-set any-valid/any-dirty
// mask. Bulk operations (signature expansion, bulk invalidation) intersect
// δ(W) with these masks and walk only the surviving sets, so a mostly-empty
// or mostly-clean cache costs almost nothing to disambiguate against. The
// masks share the []uint64 layout of sig.SetMask.
//
//bulklint:snapstate
type Cache struct {
	//bulklint:snapstate-ignore sets immutable geometry checked by the cross-geometry panic
	sets int
	ways int
	//bulklint:snapstate-ignore lineBytes immutable geometry checked by the cross-geometry panic
	lineBytes int
	//bulklint:snapstate-ignore indexBits immutable geometry derived from sets
	indexBits int
	//bulklint:snapstate-ignore words immutable geometry checked by the cross-geometry panic
	words int    // uint64 words of Data per line; 0 = no line data
	lines []Line // sets*ways, row-major by set
	//bulklint:snapstate-ignore arena allocator storage: the unassigned tail of the current Data chunk, never observable state
	arena []uint64
	clock uint64
	stats Stats

	validCnt  []uint16 // valid lines per set
	dirtyCnt  []uint16 // dirty lines per set
	validMask []uint64 // bit s set iff validCnt[s] > 0
	dirtyMask []uint64 // bit s set iff dirtyCnt[s] > 0
}

// dataChunkLines is how many lines' Data the arena grows by at a time.
// Small chunks keep a cold cache cheap: a short run that touches a few
// hundred ways pays for about that many buffers, not for the whole
// sets×ways slab.
const dataChunkLines = 16

// New builds a cache of sizeBytes bytes, with the given associativity and
// line size. sizeBytes/(ways*lineBytes) must be a power of two.
// wordsPerLine sizes each line's Data buffer; 0 means the cache carries no
// line data (Data stays nil).
func New(sizeBytes, ways, lineBytes, wordsPerLine int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 || wordsPerLine < 0 {
		return nil, fmt.Errorf("cache: invalid geometry %d/%d/%d/%d", sizeBytes, ways, lineBytes, wordsPerLine)
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*lineBytes", sizeBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		indexBits: bits.TrailingZeros(uint(sets)),
		words:     wordsPerLine,
		lines:     make([]Line, sets*ways),
		validCnt:  make([]uint16, sets),
		dirtyCnt:  make([]uint16, sets),
		validMask: make([]uint64, (sets+63)/64),
		dirtyMask: make([]uint64, (sets+63)/64),
	}, nil
}

// MustNew is New that panics on error; for static configuration tables.
func MustNew(sizeBytes, ways, lineBytes, wordsPerLine int) *Cache {
	c, err := New(sizeBytes, ways, lineBytes, wordsPerLine)
	if err != nil {
		panic(err)
	}
	return c
}

// NumSets returns the number of cache sets.
func (c *Cache) NumSets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.lineBytes }

// IndexBits returns log2(NumSets): how many line-address bits form the set
// index.
func (c *Cache) IndexBits() int { return c.indexBits }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(a LineAddr) int { return int(a) & (c.sets - 1) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the ways of set i.
func (c *Cache) set(i int) []Line { return c.lines[i*c.ways : (i+1)*c.ways] }

// Way returns way j of set i, valid or not. This is the cache-side read of
// signature expansion (Figure 4): given a set index from δ, read out the
// set's lines. i*Ways()+j is a stable index for the lifetime of the cache,
// so callers may key per-way side tables by it.
func (c *Cache) Way(i, j int) *Line { return &c.lines[i*c.ways+j] }

// ensureData gives l its Data buffer if it has none yet, carving it from
// the arena. Each buffer is a distinct full-capacity slice of a chunk, so
// no two ways ever share backing words.
//
//bulklint:noalloc
func (c *Cache) ensureData(l *Line) {
	if l.Data != nil || c.words == 0 {
		return
	}
	if len(c.arena) < c.words {
		c.arena = make([]uint64, min(dataChunkLines, len(c.lines))*c.words) //bulklint:allow noalloc a way's first fill draws its buffer from a fresh chunk; warm ways reuse theirs
	}
	l.Data = c.arena[:c.words:c.words]
	c.arena = c.arena[c.words:]
}

// Occupancy bookkeeping. Counts drive the masks: a set's mask bit flips
// exactly on the 0↔1 count transitions, so every state change costs O(1).

func (c *Cache) addValid(set int) {
	c.validCnt[set]++
	c.validMask[set>>6] |= 1 << (set & 63)
}

func (c *Cache) subValid(set int) {
	c.validCnt[set]--
	if c.validCnt[set] == 0 {
		c.validMask[set>>6] &^= 1 << (set & 63)
	}
}

func (c *Cache) addDirty(set int) {
	c.dirtyCnt[set]++
	c.dirtyMask[set>>6] |= 1 << (set & 63)
}

func (c *Cache) subDirty(set int) {
	c.dirtyCnt[set]--
	if c.dirtyCnt[set] == 0 {
		c.dirtyMask[set>>6] &^= 1 << (set & 63)
	}
}

// Lookup returns the line holding address a, or nil. It does not touch LRU
// state or statistics; use Access for the full load/store path.
//
//bulklint:noalloc
func (c *Cache) Lookup(a LineAddr) *Line {
	ws := c.set(c.SetIndex(a))
	for i := range ws {
		if ws[i].State != Invalid && ws[i].Addr == a {
			return &ws[i]
		}
	}
	return nil
}

// Contains reports whether address a is present (valid) in the cache.
//
//bulklint:noalloc
func (c *Cache) Contains(a LineAddr) bool { return c.Lookup(a) != nil }

// Access performs the tag-match part of a load or store: on a hit it
// refreshes LRU and returns the line; on a miss it returns nil. The caller
// decides what to insert on a miss (fill state depends on the request type).
//
//bulklint:noalloc
func (c *Cache) Access(a LineAddr) *Line {
	l := c.Lookup(a)
	if l == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.clock++
	l.lru = c.clock
	return l
}

// Insert places address a in the cache in the given state, evicting the LRU
// way if the set is full. The returned Evicted tells the caller what was
// displaced (State Invalid when an empty way was used, or when a was
// already present) — the caller owns writing back dirty victims. The
// line's Data keeps the way's buffer, whose words are stale until the
// caller fills them.
//
//bulklint:noalloc
func (c *Cache) Insert(a LineAddr, st State) (*Line, Evicted) {
	if st == Invalid {
		panic("cache: cannot insert a line in Invalid state") //bulklint:invariant callers insert only Clean or Dirty lines
	}
	set := c.SetIndex(a)
	if l := c.Lookup(a); l != nil {
		// Already present: just update state (an upgrade) and LRU.
		if st == Dirty && l.State != Dirty {
			l.State = Dirty
			c.addDirty(set)
		}
		c.clock++
		l.lru = c.clock
		return l, Evicted{}
	}
	ws := c.set(set)
	victim := -1
	for i := range ws {
		if ws[i].State == Invalid {
			victim = i
			break
		}
	}
	var ev Evicted
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ws); i++ {
			if ws[i].lru < ws[victim].lru {
				victim = i
			}
		}
		ev = Evicted{Addr: ws[victim].Addr, State: ws[victim].State}
		c.stats.Evictions++
		c.subValid(set)
		if ws[victim].State == Dirty {
			c.stats.DirtyEvicts++
			c.subDirty(set)
		}
	}
	c.clock++
	l := &ws[victim]
	l.Addr, l.State, l.lru = a, st, c.clock
	c.ensureData(l)
	c.addValid(set)
	if st == Dirty {
		c.addDirty(set)
	}
	return l, ev
}

// Invalidate removes address a from the cache if present. Returns the state
// the line had (Invalid if it was not present).
func (c *Cache) Invalidate(a LineAddr) State {
	l := c.Lookup(a)
	if l == nil {
		return Invalid
	}
	st := l.State
	l.State = Invalid
	c.stats.Invals++
	set := c.SetIndex(a)
	c.subValid(set)
	if st == Dirty {
		c.subDirty(set)
	}
	return st
}

// MarkClean downgrades a dirty line to clean (after a writeback). No-op if
// the line is absent.
//
//bulklint:noalloc
func (c *Cache) MarkClean(a LineAddr) {
	if l := c.Lookup(a); l != nil && l.State == Dirty {
		l.State = Clean
		c.subDirty(c.SetIndex(a))
	}
}

// MarkDirty upgrades a resident line to Dirty. Line state transitions must
// go through the cache (not `l.State = Dirty` on the returned pointer) so
// the per-set occupancy summaries stay consistent.
//
//bulklint:noalloc
func (c *Cache) MarkDirty(l *Line) {
	if l.State == Invalid {
		panic("cache: MarkDirty on an invalid line") //bulklint:invariant callers pass lines obtained from Lookup/Access/Insert
	}
	if l.State != Dirty {
		l.State = Dirty
		c.addDirty(c.SetIndex(l.Addr))
	}
}

// DirtyInSet reports whether set i holds any dirty line.
//
//bulklint:noalloc
func (c *Cache) DirtyInSet(i int) bool { return c.dirtyCnt[i] > 0 }

// DirtyLinesInSet appends the dirty lines of set i to dst.
//
//bulklint:noalloc
func (c *Cache) DirtyLinesInSet(i int, dst []*Line) []*Line {
	if c.dirtyCnt[i] == 0 {
		return dst
	}
	ws := c.set(i)
	for j := range ws {
		if ws[j].State == Dirty {
			dst = append(dst, &ws[j]) //bulklint:allow noalloc amortized growth; callers pass a warmed scratch buffer
		}
	}
	return dst
}

// AndValidSets intersects m (a bit-per-set mask in sig.SetMask layout) with
// the cache's any-valid occupancy mask, clearing bits of sets that hold no
// valid line. m must cover NumSets bits.
//
//bulklint:noalloc
func (c *Cache) AndValidSets(m []uint64) {
	for i := range c.validMask {
		m[i] &= c.validMask[i]
	}
}

// AndDirtySets intersects m with the any-dirty occupancy mask, clearing
// bits of sets that hold no dirty line.
//
//bulklint:noalloc
func (c *Cache) AndDirtySets(m []uint64) {
	for i := range c.dirtyMask {
		m[i] &= c.dirtyMask[i]
	}
}
