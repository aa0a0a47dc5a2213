package bdm

import (
	"testing"

	"bulk/internal/cache"
	"bulk/internal/rng"
	"bulk/internal/sig"
)

// memoCase is one module under the differential test. Every cache carries
// 16 words of line data, as the runtimes' caches do. real modules come from
// New and also run whole expansions; the hashed ones are assembled by hand,
// because New refuses a configuration δ cannot decode, and exercise
// memoInSignature alone.
type memoCase struct {
	name string
	m    *Module
	real bool
}

func memoCases(t *testing.T) []memoCase {
	t.Helper()
	line := tmModule(t, 1)
	word := tlsModule(t, 1)
	hashedLine := &Module{
		cfg:   Config{Sig: sig.MustHashedConfig("H14", []int{10, 10}, sig.TMAddrBits, 7)},
		cache: cache.MustNew(32<<10, 4, 64, 16),
	}
	hcfg := sig.MustHashedConfig("H14w", []int{10, 10}, sig.TLSAddrBits, 9)
	wp, err := sig.NewWordMaskPlan(hcfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	hashedWord := &Module{
		cfg:      Config{Sig: hcfg, WordsPerLine: 16},
		cache:    cache.MustNew(16<<10, 4, 64, 16),
		wordPlan: wp,
	}
	if _, ok := hcfg.WordDeltas(16); ok {
		t.Fatal("a hashed configuration must have no word-offset table")
	}
	return []memoCase{
		{"line", line, true},
		{"word", word, true},
		{"hashed-line", hashedLine, false},
		{"hashed-word", hashedWord, false},
	}
}

// refInSignature is the membership test the memo must reproduce: Contains
// of the line, or of any of its words.
func refInSignature(m *Module, s *sig.Signature, line cache.LineAddr) bool {
	if m.cfg.WordsPerLine <= 1 {
		return s.Contains(sig.Addr(line))
	}
	for w := 0; w < m.cfg.WordsPerLine; w++ {
		if s.Contains(sig.Addr(uint64(line)*uint64(m.cfg.WordsPerLine) + uint64(w))) {
			return true
		}
	}
	return false
}

// TestMemoMatchesContains drives random insert / evict / invalidate /
// transplant / SaveState+LoadState sequences under each module and requires
// the memoized membership of every valid way to equal Contains (any-word
// Contains at word granularity), and every expansion to invalidate exactly
// the clean lines the direct test selects, in set-then-way order.
func TestMemoMatchesContains(t *testing.T) {
	for _, tc := range memoCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			c := m.cache
			m.ensureMemo()
			nsets, ways := c.NumSets(), c.Ways()
			lineSpan := uint64(3 * nsets * ways) // ~3x capacity: constant evictions
			// Lines also differ in high bits, so two lines of a way can
			// share every low tag bit.
			randLine := func(r *rng.Rand) uint64 { return r.Uint64n(lineSpan) + r.Uint64n(8)<<18 }
			other := cache.MustNew(nsets*ways*c.LineBytes(), ways, c.LineBytes(), 16)
			var snap, xfer cache.Snapshot
			saved := false
			r := rng.New(uint64(len(tc.name)) * 977)

			sigAddr := func() sig.Addr {
				line := randLine(r)
				if m.cfg.WordsPerLine > 1 {
					return sig.Addr(line*uint64(m.cfg.WordsPerLine) + r.Uint64n(uint64(m.cfg.WordsPerLine)))
				}
				return sig.Addr(line)
			}
			randSig := func() *sig.Signature {
				s := m.cfg.Sig.NewSignature()
				for i, n := 0, 1+r.Intn(40); i < n; i++ {
					s.Add(sigAddr())
				}
				return s
			}
			insert := func(cc *cache.Cache) {
				st := cache.Clean
				if r.Intn(4) == 0 {
					st = cache.Dirty
				}
				cc.Insert(cache.LineAddr(randLine(r)), st)
			}

			for step := 0; step < 3000; step++ {
				switch op := r.Intn(20); {
				case op < 10:
					insert(c)
				case op < 12:
					c.Invalidate(cache.LineAddr(randLine(r)))
				case op < 14:
					insert(other)
				case op == 14: // transplant other's whole contents into c
					other.SaveState(&xfer)
					c.LoadState(&xfer)
				case op == 15:
					c.SaveState(&snap)
					saved = true
				case op == 16 && saved:
					c.LoadState(&snap)
				case op == 17 && tc.real:
					checkExpansion(t, m, randSig())
				default:
					s := randSig()
					for set := 0; set < nsets; set++ {
						for j := 0; j < ways; j++ {
							l := c.Way(set, j)
							if l.State == cache.Invalid {
								continue
							}
							if got, want := m.memoInSignature(s, set*ways+j, l.Addr), refInSignature(m, s, l.Addr); got != want {
								t.Fatalf("step %d: line %#x in way %d/%d: memo %v, Contains %v", step, l.Addr, set, j, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// checkExpansion runs CommitInvalidate and compares its invalidation list
// with the clean lines the direct membership test selects.
func checkExpansion(t *testing.T, m *Module, s *sig.Signature) {
	t.Helper()
	c := m.cache
	var want []cache.LineAddr
	for set := 0; set < c.NumSets(); set++ {
		for j := 0; j < c.Ways(); j++ {
			if l := c.Way(set, j); l.State == cache.Clean && refInSignature(m, s, l.Addr) {
				want = append(want, l.Addr)
			}
		}
	}
	got, _ := m.CommitInvalidate(s)
	if len(got) != len(want) {
		t.Fatalf("CommitInvalidate invalidated %d lines, direct test selects %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("invalidation %d: got %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestShadowKeptAcrossReuse pins the recycled shadow signature: a version
// object reused after FreeVersion keeps its shadow signature object, comes
// back with no active shadow, and a restarted shadow starts empty.
func TestShadowKeptAcrossReuse(t *testing.T) {
	m := tlsModule(t, 1)
	v, _ := m.AllocVersion(1)
	m.SetRunning(v)
	m.StartShadow(v)
	m.CommitWrite(v, 77)
	wsh := v.Shadow()
	m.FreeVersion(v)

	v2, _ := m.AllocVersion(2)
	if v2 != v {
		t.Fatal("the freed version object must be recycled")
	}
	if v2.Shadow() != nil {
		t.Fatal("a recycled version must start with no active shadow")
	}
	m.SetRunning(v2)
	m.CommitWrite(v2, 78) // before StartShadow: must not reach the shadow
	m.StartShadow(v2)
	if v2.Shadow() != wsh {
		t.Fatal("StartShadow must reuse the version's shadow signature object")
	}
	if !wsh.Zero() {
		t.Fatal("a restarted shadow must be empty")
	}
}

// TestSnapshotTellsNoShadowFromEmptyShadow round-trips both states through
// SaveState/LoadState: an active-but-empty shadow stays active, an inactive
// one stays inactive even though its signature object exists.
func TestSnapshotTellsNoShadowFromEmptyShadow(t *testing.T) {
	m := tlsModule(t, 2)
	empty, _ := m.AllocVersion(1)
	none, _ := m.AllocVersion(2)
	m.StartShadow(empty)
	m.StartShadow(none)
	m.ClearVersion(none) // object kept, shadow inactive

	var st ModuleState
	m.SaveState(&st)
	m.StartShadow(none)
	m.ClearVersion(empty)
	m.LoadState(&st)

	if got := m.VersionAt(0).Shadow(); got == nil || !got.Zero() {
		t.Fatal("an active empty shadow must survive the round trip as active and empty")
	}
	if m.VersionAt(1).Shadow() != nil {
		t.Fatal("an inactive shadow must survive the round trip as inactive")
	}
}

// TestExpandRejectsForeignConfig pins the precondition memoInSignature
// relies on: an expansion over a signature whose config encodes addresses
// differently panics in the δ decode before any line is tested, while a
// distinct but Compatible config object selects exactly the same lines.
func TestExpandRejectsForeignConfig(t *testing.T) {
	m := tmModule(t, 1)
	addrs := []cache.LineAddr{0x1000, 0x2345, 0x3f00f, 0x77}
	for _, a := range addrs {
		m.cache.Insert(a, cache.Clean)
	}

	same := sig.DefaultTM() // a second object with the module's encoding
	if same == m.cfg.Sig || !same.Compatible(m.cfg.Sig) {
		t.Fatal("test needs a distinct, Compatible config object")
	}
	s := same.NewSignature()
	s.Add(sig.Addr(0x2345))
	s.Add(sig.Addr(0x77))
	checkExpansion(t, m, s)

	foreign := sig.MustHashedConfig("H14", []int{10, 10}, sig.TMAddrBits, 7)
	if foreign.Compatible(m.cfg.Sig) {
		t.Fatal("test needs an incompatible config")
	}
	f := foreign.NewSignature()
	f.Add(sig.Addr(0x1000))
	defer func() {
		if recover() == nil {
			t.Fatal("CommitInvalidate with an incompatible signature must panic")
		}
	}()
	m.CommitInvalidate(f)
}
