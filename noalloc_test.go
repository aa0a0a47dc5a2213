// Dynamic cross-check of the bulklint noalloc rule: every exported
// //bulklint:noalloc kernel is exercised under testing.AllocsPerRun on a
// warmed structure and must perform zero allocations per call. The harness
// table and the annotation set are checked against each other in both
// directions, so annotating a new exported kernel without adding a harness
// entry (or vice versa) fails this test rather than silently skipping.
package bulk_test

import (
	"testing"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/check"
	"bulk/internal/flatmap"
	"bulk/internal/lint"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sig"
)

// kernelHarnesses returns one AllocsPerRun body per exported noalloc
// kernel, keyed by "<import path>.<kernel name>". Each body is called many
// times against pre-warmed state: buffers are grown and tables populated
// during setup, since the noalloc contract is about steady-state calls.
func kernelHarnesses(t *testing.T) map[string]func() {
	t.Helper()

	// Signatures: the default TM configuration, pre-populated.
	cfg := sig.DefaultTM()
	s1 := cfg.NewSignature()
	s2 := cfg.NewSignature()
	scr := cfg.NewSignature()
	for a := sig.Addr(0); a < 64; a++ {
		s1.Add(a * 37)
		s2.Add(a * 41)
	}
	encoded := sig.RLEncode(s1)
	encBuf := sig.RLEncodeAppend(nil, s1)
	plan, err := sig.NewDecodePlan(cfg, sig.IndexSpec{LowBit: 0, Bits: 7})
	if err != nil {
		t.Fatalf("NewDecodePlan: %v", err)
	}
	mask := sig.NewSetMask(plan.Index().NumSets())
	mask2 := sig.NewSetMask(plan.Index().NumSets())
	wmp, err := sig.NewWordMaskPlan(cfg, 16)
	if err != nil {
		t.Fatalf("NewWordMaskPlan: %v", err)
	}
	posBuf := make([]uint32, cfg.NumChunks())
	cfg.BitPositions(1234, posBuf)
	wordDeltas, ok := cfg.WordDeltas(16)
	if !ok {
		t.Fatal("WordDeltas: bit-selected config must have a word-offset table")
	}

	// Flat map and set, warmed past their final capacity, plus CopyFrom
	// destinations pre-grown to the source size.
	var fm flatmap.Map[uint64]
	var fs flatmap.Set
	for k := uint64(0); k < 200; k++ {
		fm.Put(k, k+1)
		fs.Add(k)
	}
	keyBuf := fm.SortedKeys(nil)
	var fm2 flatmap.Map[uint64]
	var fs2 flatmap.Set
	fm2.CopyFrom(&fm)
	fs2.CopyFrom(&fs)

	// Cache with a mix of clean and dirty resident lines.
	c := cache.MustNew(1<<15, 4, 64, 16)
	for i := 0; i < 64; i++ {
		st := cache.Clean
		if i%2 == 0 {
			st = cache.Dirty
		}
		c.Insert(cache.LineAddr(i), st)
	}
	dirtyLine := c.Lookup(cache.LineAddr(0))
	lineBuf := c.DirtyLinesInSet(0, nil)
	setMaskBuf := make([]uint64, (c.NumSets()+63)/64)
	// A full cache for Insert: every call past the first lap evicts, and
	// every way already owns its Data buffer.
	ci := cache.MustNew(1<<12, 4, 64, 16)
	next := cache.LineAddr(0)
	for ; next < 2*64; next++ {
		ci.Insert(next, cache.Dirty)
	}

	// Memory and overflow area.
	m := mem.NewMemory()
	m.Write(100, 7)
	m2 := mem.NewMemory()
	m2.CopyFrom(m)
	addrBuf := m.AppendSortedAddrs(nil)
	ov := mem.NewOverflowArea()
	ov.Spill(5, 0xF, []mem.Word{1, 2, 3, 4})

	// Replay scheduler: a warm-up Resume grows the pooled trace buffer so
	// steady-state Reset/Resume calls only reuse it.
	schedPrefix := []int{1, 0, 2}
	resumeSteps := make([]check.Step, 8)
	rs := check.NewReplay(schedPrefix, 16)
	rs.Resume(len(resumeSteps), resumeSteps)

	var bw bus.Bandwidth

	muts := mutate.Of(mutate.DropWRTerm, mutate.SkipWordMerge)

	return map[string]func(){
		"bulk/internal/mutate.Set.Has":              func() { _ = muts.Has(mutate.DropWRTerm) },
		"bulk/internal/sig.Signature.Add":           func() { s1.Add(1234) },
		"bulk/internal/sig.Signature.Contains":      func() { _ = s1.Contains(1234) },
		"bulk/internal/sig.Config.BitPositions":     func() { cfg.BitPositions(1234, posBuf) },
		"bulk/internal/sig.Signature.HasBits":       func() { _ = s1.HasBits(posBuf) },
		"bulk/internal/sig.Signature.HasBitsAny":    func() { _ = s1.HasBitsAny(posBuf, wordDeltas) },
		"bulk/internal/sig.Signature.Empty":         func() { _ = s1.Empty() },
		"bulk/internal/sig.Signature.Zero":          func() { _ = s1.Zero() },
		"bulk/internal/sig.Signature.Clear":         func() { scr.Clear() },
		"bulk/internal/sig.Signature.CopyFrom":      func() { scr.CopyFrom(s1) },
		"bulk/internal/sig.Signature.IntersectWith": func() { scr.IntersectWith(s2) },
		"bulk/internal/sig.Signature.UnionWith":     func() { scr.UnionWith(s2) },
		"bulk/internal/sig.Signature.Intersects":    func() { _ = s1.Intersects(s2) },
		"bulk/internal/sig.RLEncodedBits":           func() { _ = sig.RLEncodedBits(s1) },
		"bulk/internal/sig.RLEncodeAppend":          func() { encBuf = sig.RLEncodeAppend(encBuf[:0], s1) },
		"bulk/internal/sig.RLDecodeInto": func() {
			if err := sig.RLDecodeInto(scr, encoded); err != nil {
				t.Fatal(err)
			}
		},
		"bulk/internal/sig.SetMask.Set":           func() { mask.Set(3) },
		"bulk/internal/sig.SetMask.ClearSet":      func() { mask.ClearSet(3) },
		"bulk/internal/sig.SetMask.Has":           func() { _ = mask.Has(3) },
		"bulk/internal/sig.SetMask.Clear":         func() { mask2.Clear() },
		"bulk/internal/sig.SetMask.OrWith":        func() { mask2.OrWith(mask) },
		"bulk/internal/sig.SetMask.CopyFrom":      func() { mask2.CopyFrom(mask) },
		"bulk/internal/sig.SetMask.Count":         func() { _ = mask.Count() },
		"bulk/internal/sig.DecodePlan.DecodeInto": func() { plan.DecodeInto(s1, mask) },
		"bulk/internal/sig.WordMaskPlan.Mask":     func() { _ = wmp.Mask(s1, 3) },

		"bulk/internal/flatmap.Map.Get":        func() { _, _ = fm.Get(42) },
		"bulk/internal/flatmap.Map.Has":        func() { _ = fm.Has(42) },
		"bulk/internal/flatmap.Map.Put":        func() { fm.Put(42, 99) },
		"bulk/internal/flatmap.Map.Delete":     func() { fm.Delete(9999) },
		"bulk/internal/flatmap.Map.Reset":      func() { fm.Reset(); fm.Put(42, 1) },
		"bulk/internal/flatmap.Map.SortedKeys": func() { keyBuf = fm.SortedKeys(keyBuf[:0]) },
		"bulk/internal/flatmap.Set.Has":        func() { _ = fs.Has(42) },
		"bulk/internal/flatmap.Set.Add":        func() { fs.Add(42) },
		"bulk/internal/flatmap.Set.Delete":     func() { fs.Delete(9999) },
		"bulk/internal/flatmap.Set.Reset":      func() { fs.Reset(); fs.Add(42) },
		"bulk/internal/flatmap.Set.SortedKeys": func() { keyBuf = fs.SortedKeys(keyBuf[:0]) },
		"bulk/internal/flatmap.Map.CopyFrom":   func() { fm2.CopyFrom(&fm) },
		"bulk/internal/flatmap.Set.CopyFrom":   func() { fs2.CopyFrom(&fs) },

		"bulk/internal/cache.Cache.Lookup":          func() { _ = c.Lookup(3) },
		"bulk/internal/cache.Cache.Contains":        func() { _ = c.Contains(3) },
		"bulk/internal/cache.Cache.Access":          func() { _ = c.Access(3) },
		"bulk/internal/cache.Cache.Insert":          func() { ci.Insert(next, cache.Clean); next++ },
		"bulk/internal/cache.Cache.MarkClean":       func() { c.MarkClean(2) },
		"bulk/internal/cache.Cache.MarkDirty":       func() { c.MarkDirty(dirtyLine) },
		"bulk/internal/cache.Cache.DirtyInSet":      func() { _ = c.DirtyInSet(0) },
		"bulk/internal/cache.Cache.DirtyLinesInSet": func() { lineBuf = c.DirtyLinesInSet(0, lineBuf[:0]) },
		"bulk/internal/cache.Cache.AndValidSets": func() {
			for i := range setMaskBuf {
				setMaskBuf[i] = ^uint64(0)
			}
			c.AndValidSets(setMaskBuf)
		},
		"bulk/internal/cache.Cache.AndDirtySets": func() { c.AndDirtySets(setMaskBuf) },

		"bulk/internal/mem.Memory.Read":                     func() { _ = m.Read(100) },
		"bulk/internal/mem.Memory.Write":                    func() { m.Write(100, 7) },
		"bulk/internal/mem.Memory.CopyFrom":                 func() { m2.CopyFrom(m) },
		"bulk/internal/mem.Memory.AppendSortedAddrs":        func() { addrBuf = m.AppendSortedAddrs(addrBuf[:0]) },
		"bulk/internal/mem.OverflowArea.Fetch":              func() { _, _, _ = ov.Fetch(5) },
		"bulk/internal/mem.OverflowArea.DisambiguationScan": func() { _ = ov.DisambiguationScan(5) },

		"bulk/internal/check.ReplayScheduler.Reset":  func() { rs.Reset(schedPrefix, 16) },
		"bulk/internal/check.ReplayScheduler.Resume": func() { rs.Resume(len(resumeSteps), resumeSteps) },

		"bulk/internal/bus.Bandwidth.Record":       func() { bw.Record(bus.Inv, 12) },
		"bulk/internal/bus.Bandwidth.RecordN":      func() { bw.RecordN(bus.WB, 76, 3) },
		"bulk/internal/bus.Bandwidth.RecordCommit": func() { bw.RecordCommit(40) },
	}
}

func TestNoallocKernelsAllocFree(t *testing.T) {
	pkgs, _, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	kernels := lint.NoallocKernels(pkgs)
	if len(kernels) == 0 {
		t.Fatal("no //bulklint:noalloc kernels found in the module")
	}

	harness := kernelHarnesses(t)
	covered := map[string]bool{}
	for _, k := range kernels {
		if !k.Exported {
			continue // unexported kernels are covered by the static rule only
		}
		key := k.Pkg + "." + k.Name
		fn, ok := harness[key]
		if !ok {
			t.Errorf("exported noalloc kernel %s has no AllocsPerRun harness entry", key)
			continue
		}
		covered[key] = true
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", key, allocs)
		}
	}
	for key := range harness {
		if !covered[key] {
			t.Errorf("harness entry %s matches no exported //bulklint:noalloc kernel", key)
		}
	}
}
