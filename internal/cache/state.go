// Snapshot support: the model checker's incremental execution engine
// captures caches at schedule fork points. A State stores only the
// occupied sets — their ways, plus the occupancy summaries — so capturing
// and restoring a mostly-empty cache costs O(occupancy), and a snapshot
// never carries the full line array of an idle cache.
package cache

import "math/bits"

// Snapshot is a deep, sparse copy of a cache's mutable state. The zero value
// is an empty snapshot; SaveState grows it on first use and reuses its
// buffers on every later capture into the same State.
//
//bulklint:snapstate
type Snapshot struct {
	setIdx    []int32 // occupied sets, ascending
	lines     []Line  // their ways, concatenated, ways per set
	ways      int
	clock     uint64
	stats     Stats
	validCnt  []uint16
	dirtyCnt  []uint16
	validMask []uint64
	dirtyMask []uint64
}

// SizeBytes estimates the retained size of the snapshot for the explorer's
// snapshot-cache budget accounting.
func (st *Snapshot) SizeBytes() int {
	n := 128 + 4*cap(st.setIdx) + 48*cap(st.lines) +
		2*(cap(st.validCnt)+cap(st.dirtyCnt)) +
		8*(cap(st.validMask)+cap(st.dirtyMask))
	for i := range st.lines {
		n += 8 * cap(st.lines[i].Data)
	}
	return n
}

// SaveState deep-copies the cache's occupied sets and occupancy summaries
// into st, reusing st's line and Data storage across captures.
//
//bulklint:captures snapshot
//bulklint:captures snapshot Snapshot
func (c *Cache) SaveState(st *Snapshot) {
	st.ways = c.ways
	st.clock = c.clock
	st.stats = c.stats
	st.validCnt = append(st.validCnt[:0], c.validCnt...)
	st.dirtyCnt = append(st.dirtyCnt[:0], c.dirtyCnt...)
	st.validMask = append(st.validMask[:0], c.validMask...)
	st.dirtyMask = append(st.dirtyMask[:0], c.dirtyMask...)
	st.setIdx = st.setIdx[:0]
	n := 0
	for w, m := range c.validMask {
		for ; m != 0; m &= m - 1 {
			set := w<<6 + bits.TrailingZeros64(m)
			st.setIdx = append(st.setIdx, int32(set))
			ws := c.set(set)
			for i := range ws {
				if n == len(st.lines) {
					st.lines = append(st.lines, Line{})
				}
				saveLine(&st.lines[n], &ws[i])
				n++
			}
		}
	}
	st.lines = st.lines[:n]
}

// LoadState restores the cache to the captured state: saved sets are
// rewritten way by way, and sets occupied now but empty in the capture are
// invalidated. Untouched sets were empty on both sides, where every
// observable fact (all ways Invalid) already agrees: nothing ever reads an
// Invalid way's Addr, lru, or Data — Lookup filters on State, victim
// selection prefers Invalid ways without comparing their lru, and Insert
// overwrites the tag fields while the caller refills Data.
//
//bulklint:captures restore
//bulklint:captures restore Snapshot
func (c *Cache) LoadState(st *Snapshot) {
	if c.ways != st.ways || len(c.validCnt) != len(st.validCnt) {
		panic("cache: LoadState across cache geometries") //bulklint:invariant snapshots restore into clones built from the same Options
	}
	for w := range c.validMask {
		extra := c.validMask[w] &^ st.validMask[w]
		for ; extra != 0; extra &= extra - 1 {
			ws := c.set(w<<6 + bits.TrailingZeros64(extra))
			for i := range ws {
				ws[i].State = Invalid
			}
		}
	}
	for k, set := range st.setIdx {
		ws := c.set(int(set))
		for i := range ws {
			c.restoreLine(&ws[i], &st.lines[k*st.ways+i])
		}
	}
	c.clock = st.clock
	c.stats = st.stats
	copy(c.validCnt, st.validCnt)
	copy(c.dirtyCnt, st.dirtyCnt)
	copy(c.validMask, st.validMask)
	copy(c.dirtyMask, st.dirtyMask)
}

// saveLine captures a cache line into a snapshot line. The snapshot owns
// its Data buffers: one is sized on the first valid line captured into the
// slot and reused by every later capture.
func saveLine(dst, src *Line) {
	if src.State != Invalid && len(dst.Data) < len(src.Data) {
		dst.Data = make([]uint64, len(src.Data))
	}
	copyLine(dst, src)
}

// restoreLine copies a line into one of c's ways, giving the way its
// arena buffer first if a valid line lands there, so the cache never
// aliases the source's storage.
func (c *Cache) restoreLine(dst, src *Line) {
	if src.State != Invalid {
		c.ensureData(dst)
	}
	copyLine(dst, src)
}

// copyLine copies src's tag fields into dst and, when src is valid, its
// words into dst's own Data buffer, which the caller has sized. dst keeps
// its buffer; an Invalid source's words are never read, so they are not
// copied.
//
//bulklint:noalloc
//bulklint:captures copyfrom Line
func copyLine(dst, src *Line) {
	data := dst.Data
	*dst = *src
	dst.Data = data
	if src.State != Invalid {
		copy(data, src.Data)
	}
}
