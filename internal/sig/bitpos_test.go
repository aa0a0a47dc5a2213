package sig

import (
	"testing"

	"bulk/internal/rng"
)

// TestBitPositionsMatchContains checks the memo kernels against the direct
// path on bit-selected and hashed configurations: BitPositions names
// exactly the bits Add sets, HasBits equals Contains, and for bit-selected
// configurations HasBitsAny over the WordDeltas table equals any-word
// Contains of the line.
func TestBitPositionsMatchContains(t *testing.T) {
	cfgs := []*Config{
		DefaultTM(),
		DefaultTLS(),
		MustConfig("S3", []int{5, 5, 6, 7, 8}, TMPermutation, TMAddrBits),
		MustHashedConfig("H14", []int{10, 10}, TLSAddrBits, 3),
	}
	const wpl = 16
	r := rng.New(11)
	for _, cfg := range cfgs {
		pos := make([]uint32, cfg.NumChunks())
		deltas, ok := cfg.WordDeltas(wpl)
		if ok == cfg.Hashed() {
			t.Fatalf("%s: WordDeltas ok=%v, want %v", cfg, ok, !cfg.Hashed())
		}
		for trial := 0; trial < 50; trial++ {
			s := cfg.NewSignature()
			for i, n := 0, 1+r.Intn(60); i < n; i++ {
				s.Add(Addr(r.Uint64n(1 << 16)))
			}
			for i := 0; i < 200; i++ {
				a := Addr(r.Uint64n(1 << 16))
				cfg.BitPositions(a, pos)
				one := cfg.NewSignature()
				one.Add(a)
				if one.PopCount() != len(pos) {
					t.Fatalf("%s: Add(%d) set %d bits, want %d", cfg, a, one.PopCount(), len(pos))
				}
				if !one.HasBits(pos) {
					t.Fatalf("%s: BitPositions(%d) names a bit Add did not set", cfg, a)
				}
				if got, want := s.HasBits(pos), s.Contains(a); got != want {
					t.Fatalf("%s: HasBits(%d) = %v, Contains = %v", cfg, a, got, want)
				}
				if !ok {
					continue
				}
				line := a / wpl
				cfg.BitPositions(line*wpl, pos)
				want := false
				for w := Addr(0); w < wpl; w++ {
					want = want || s.Contains(line*wpl+w)
				}
				if got := s.HasBitsAny(pos, deltas); got != want {
					t.Fatalf("%s: HasBitsAny(line %d) = %v, any-word Contains = %v", cfg, line, got, want)
				}
			}
		}
	}
}
