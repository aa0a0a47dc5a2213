package cache

import (
	"testing"
	"unsafe"

	"bulk/internal/rng"
)

// backing returns the address of a Data buffer's first word (nil for none).
func backing(d []uint64) *uint64 { return unsafe.SliceData(d) }

// checkOwnData requires every way holding a buffer to hold its own: the
// right length, capacity clipped to it (so an append cannot spill into a
// neighbour), and a backing array no other way and no foreign buffer in
// foreign shares.
func checkOwnData(t *testing.T, c *Cache, foreign map[*uint64]bool) {
	t.Helper()
	seen := map[*uint64]bool{}
	for i := range c.lines {
		d := c.lines[i].Data
		if c.lines[i].State != Invalid && d == nil {
			t.Fatalf("way %d: valid line without Data", i)
		}
		if d == nil {
			continue
		}
		if len(d) != c.words || cap(d) != c.words {
			t.Fatalf("way %d: Data len/cap %d/%d, want %d/%d", i, len(d), cap(d), c.words, c.words)
		}
		p := backing(d)
		if seen[p] {
			t.Fatalf("way %d shares its Data backing array with another way", i)
		}
		if foreign[p] {
			t.Fatalf("way %d aliases a buffer it must not own", i)
		}
		seen[p] = true
	}
}

// snapshotBuffers collects the backing arrays of a snapshot's Data.
func snapshotBuffers(st *Snapshot) map[*uint64]bool {
	m := map[*uint64]bool{}
	for i := range st.lines {
		if st.lines[i].Data != nil {
			m[backing(st.lines[i].Data)] = true
		}
	}
	return m
}

// TestDataOwnership pins the cache-owned Data contract: no two ways share
// a backing array, a way keeps its buffer across eviction and
// invalidation, and neither SaveState nor LoadState makes the cache alias
// the snapshot's buffers.
func TestDataOwnership(t *testing.T) {
	c := MustNew(4*2*64, 2, 64, 4) // 4 sets, 2 ways, 4 words per line
	l0, _ := c.Insert(0, Dirty)    // set 0
	l0.Data[0] = 11
	buf := backing(l0.Data)
	c.Insert(4, Clean) // set 0, now full
	l8, ev := c.Insert(8, Clean)
	if ev != (Evicted{Addr: 0, State: Dirty}) {
		t.Fatalf("want dirty eviction of line 0, got %+v", ev)
	}
	if backing(l8.Data) != buf {
		t.Fatal("the filled line must reuse the evicted way's Data buffer")
	}
	c.Invalidate(8)
	l12, _ := c.Insert(12, Clean)
	if backing(l12.Data) != buf {
		t.Fatal("the filled line must reuse the invalidated way's Data buffer")
	}

	r := rng.New(3)
	for i := 0; i < 200; i++ {
		l, _ := c.Insert(LineAddr(r.Uint64n(32)), Clean)
		l.Data[0] = uint64(i)
	}
	checkOwnData(t, c, nil)
	// Invalid ways that still own a buffer are in the capture too.
	c.Invalidate(c.lines[0].Addr)
	c.Invalidate(c.lines[3].Addr)

	var st Snapshot
	c.SaveState(&st)
	snapBufs := snapshotBuffers(&st)
	for i := range c.lines {
		if c.lines[i].Data != nil && snapBufs[backing(c.lines[i].Data)] {
			t.Fatal("SaveState must copy Data, not alias the cache's buffers")
		}
	}

	fresh := MustNew(4*2*64, 2, 64, 4)
	fresh.LoadState(&st)
	checkOwnData(t, fresh, snapBufs)
	for i := range c.lines {
		if c.lines[i].State != Invalid && fresh.lines[i].Data[0] != c.lines[i].Data[0] {
			t.Fatalf("way %d: restored word %d, want %d", i, fresh.lines[i].Data[0], c.lines[i].Data[0])
		}
	}
	var before []uint64
	for i := range st.lines {
		before = append(before, st.lines[i].Data...)
	}
	for i := range fresh.lines {
		for w := range fresh.lines[i].Data {
			fresh.lines[i].Data[w] = 999 // must not reach the snapshot
		}
	}
	var after []uint64
	for i := range st.lines {
		after = append(after, st.lines[i].Data...)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("a write to a restored cache leaked into the snapshot")
		}
	}

}

// TestNoDataWithoutWords pins wordsPerLine 0: lines never carry Data.
func TestNoDataWithoutWords(t *testing.T) {
	c := MustNew(1024, 2, 64, 0)
	for a := LineAddr(0); a < 64; a++ {
		if l, _ := c.Insert(a, Dirty); l.Data != nil {
			t.Fatalf("line %d: Data %v, want nil", a, l.Data)
		}
	}
}
