package check

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"bulk/internal/mutate"
)

// The fork-point cache's contract is byte-identity: for any target,
// mutation set, worker count, and snapshot-cache budget, the explorer's
// report, fingerprint set, dedup set, and frontier are exactly those of
// the same explorer with no cache (SnapMem 0), where every schedule
// replays from the pooled runner's base state. These tests pin that
// contract across every stock target, every catalog mutation, and cache
// budgets small enough to force eviction and misses; the pooled runner
// itself is pinned against fresh-System runs (freshRun).

// snapMemSweep covers the interesting cache regimes: a budget too small to
// hold any snapshot (every lookup misses, every insert bounces), one that
// thrashes (constant eviction), and the default (everything fits).
var snapMemSweep = []int64{1, 64 << 10, defaultSnapMem}

// TestSnapshotMatchesReplayClean: on failure-free targets the cached
// explorer reproduces the no-cache report at every worker count and cache
// budget, and the final checkpoints are byte-identical — same fingerprint
// set, same dedup set, same frontier — not merely the same counts.
func TestSnapshotMatchesReplayClean(t *testing.T) {
	base := Budget{MaxSchedules: 1_500, Depth: 12}
	for _, tgt := range SweepTargets() {
		want, wantCP, err := ExploreFrom(tgt, 0, base, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want.Failure != nil {
			t.Fatalf("%s: unmutated target failed: %s", tgt.Name(), want.Failure.Reason)
		}
		wantBytes := wantCP.Encode()
		for _, sm := range snapMemSweep {
			b := base
			b.SnapMem = sm
			for _, w := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s/snapmem=%d/w=%d", tgt.Name(), sm, w)
				got, gotCP, err := ExploreFrom(tgt, 0, b, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, label, got, want)
				if gotCP == nil {
					t.Fatalf("%s: clean stop returned no checkpoint", label)
				}
				if !bytes.Equal(gotCP.Encode(), wantBytes) {
					t.Errorf("%s: checkpoint bytes diverge from the no-cache explorer's", label)
				}
			}
		}
	}
}

// TestSnapshotMatchesReplayOnMutations: for every seeded mutation the
// cached explorer finds the same first failure — same minimized schedule,
// same reason, after the same number of schedules — as the no-cache
// explorer.
func TestSnapshotMatchesReplayOnMutations(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.ID.String(), func(t *testing.T) {
			noCache := m.Budget
			noCache.SnapMem = 0
			want := Explore(m.Target, mutate.Of(m.ID), noCache)
			if want.Failure == nil {
				t.Fatalf("mutation survived %d schedules without the cache", want.Schedules)
			}
			for _, sm := range snapMemSweep {
				b := m.Budget
				b.SnapMem = sm
				for _, w := range []int{1, 4} {
					label := fmt.Sprintf("snapmem=%d/w=%d", sm, w)
					reportsEqual(t, label, ExploreParallel(m.Target, mutate.Of(m.ID), b, w), want)
				}
			}
		})
	}
}

// TestSnapshotCheckpointCutIdentical: interrupting a cached sweep at an
// arbitrary budget boundary and resuming — even with the cache disabled
// for the resume leg, or enabled only for it — reproduces the
// uninterrupted run exactly. Snapshot state is per-call and never leaks
// into the checkpoint.
func TestSnapshotCheckpointCutIdentical(t *testing.T) {
	tgt := SweepTargets()[0]
	full := Budget{MaxSchedules: 1_500, Depth: 12, SnapMem: defaultSnapMem}
	whole, wholeCP, err := ExploreFrom(tgt, 0, full, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Failure != nil {
		t.Fatalf("unmutated target failed: %s", whole.Failure.Reason)
	}
	for _, cut := range []int{1, 137, 1_000} {
		for _, resumeSnap := range []int64{0, defaultSnapMem} {
			label := fmt.Sprintf("cut=%d/resumeSnapmem=%d", cut, resumeSnap)
			partBudget := Budget{MaxSchedules: cut, Depth: full.Depth, SnapMem: full.SnapMem}
			_, cp, err := ExploreFrom(tgt, 0, partBudget, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatalf("%s: partial run returned no checkpoint", label)
			}
			resumeBudget := full
			resumeBudget.SnapMem = resumeSnap
			resumed, resumedCP, err := ExploreFrom(tgt, 0, resumeBudget, 1, cp)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, label, resumed, whole)
			if resumedCP == nil || !bytes.Equal(resumedCP.Encode(), wholeCP.Encode()) {
				t.Errorf("%s: resumed checkpoint diverges from uninterrupted run's", label)
			}
		}
	}
}

// TestRunnerMatchesTargetRun: the pooled runner, driven schedule by
// schedule with fork-point capture enabled, judges every outcome exactly
// as a fresh System does — fingerprint, run and oracle errors, soundness
// log — including when the same runner replays schedules back to back and
// resumes siblings from its own captures.
func TestRunnerMatchesTargetRun(t *testing.T) {
	schedules := [][]int{
		nil, {1}, {2}, {1, 1}, {1, 2}, {2, 1}, {1, 1, 1}, {1}, nil, {2, 1},
	}
	const depth = 10
	for _, tgt := range SweepTargets() {
		r := tgt.newRunner(0)
		cache := newSnapCache(defaultSnapMem)
		sched := NewReplay(nil, 0)
		var out Outcome
		for i, s := range schedules {
			want := freshRun(tgt, NewReplay(s, depth), 0)
			sched.Reset(s, depth)
			r.run(&out, sched, cache, true)
			outcomesEqual(t, fmt.Sprintf("%s: schedule %d %v", tgt.Name(), i, s), &out, want)
		}
		if st := cache.Stats(); st.Inserts == 0 || st.Hits == 0 {
			t.Errorf("%s: fork-point cache saw %d inserts, %d hits; capture or resume never ran",
				tgt.Name(), st.Inserts, st.Hits)
		}
	}
}

// TestPooledFailuresMatchFreshReplay pins what pooling must not change in
// a report. For every catalog mutation, exploring with and without the
// fork-point cache reports a failure whose schedule, reason, outcome and
// steps equal a fresh System's replay of that schedule. A later walk and
// exploration of the same target must then leave the earlier report's
// failure untouched: no pooled buffer may leak into a returned report.
func TestPooledFailuresMatchFreshReplay(t *testing.T) {
	for _, m := range Catalog() {
		m := m
		t.Run(m.ID.String(), func(t *testing.T) {
			muts := mutate.Of(m.ID)
			for _, sm := range []int64{0, defaultSnapMem} {
				b := m.Budget
				b.SnapMem = sm
				label := fmt.Sprintf("snapmem=%d", sm)
				rep := Explore(m.Target, muts, b)
				f := rep.Failure
				if f == nil {
					t.Fatalf("%s: mutation survived %d schedules", label, rep.Schedules)
				}
				want, steps := freshReplay(m.Target, muts, f.Schedule, b.Depth)
				steps = steps[:min(len(steps), len(f.Schedule))]
				if f.Reason != want.Failure() {
					t.Errorf("%s: reason %q, fresh replay gives %q", label, f.Reason, want.Failure())
				}
				if !slices.Equal(f.Steps, steps) {
					t.Errorf("%s: steps %v, fresh replay gives %v", label, f.Steps, steps)
				}
				outcomesEqual(t, label, f.Outcome, want)

				kept := *f.Outcome
				kept.Soundness = slices.Clone(kept.Soundness)
				keptSteps := slices.Clone(f.Steps)
				Walk(m.Target, muts, Budget{MaxSchedules: 50, Depth: b.Depth}, 7, 0.5)
				Explore(m.Target, muts, b)
				outcomesEqual(t, label+" after a later walk and exploration", f.Outcome, &kept)
				if !slices.Equal(f.Steps, keptSteps) {
					t.Errorf("%s: steps changed after a later walk and exploration: %v, was %v", label, f.Steps, keptSteps)
				}
			}
		})
	}
}

// TestSnapCacheEvictsUnderPressure: a budget holding only a couple of
// snapshots keeps total within bounds by evicting and recycling older
// entries, and lookups after eviction are clean misses, not stale hits.
func TestSnapCacheEvictsUnderPressure(t *testing.T) {
	r := SweepTargets()[0].newRunner(0)
	// Learn one snapshot's size, then rebuild the cache sized for two.
	probe := newSnapCache(defaultSnapMem)
	sched := NewReplay(nil, 0)
	var out Outcome
	sched.Reset([]int{1}, 10)
	r.run(&out, sched, probe, true)
	if probe.head == nil {
		t.Fatal("probe run deposited no fork-point snapshot")
	}
	cache := newSnapCache(2*probe.head.size + probe.head.size/2)
	for c := 1; c <= 2; c++ {
		for i := 0; i < 4; i++ {
			sched.Reset([]int{c, i%3 + 1}, 10)
			r.run(&out, sched, cache, true)
			if out.Failed() {
				t.Fatalf("schedule [%d %d] failed: %s", c, i%3+1, out.Failure())
			}
		}
	}
	st := cache.Stats()
	if st.Inserts == 0 {
		t.Fatal("no inserts; the budget rejected every snapshot")
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions under a two-snapshot budget (inserts=%d, total=%d)", st.Inserts, cache.total)
	}
	if cache.total > cache.budget {
		t.Errorf("cache total %d exceeds budget %d with no pinned entries", cache.total, cache.budget)
	}
	if len(cache.spareSt) == 0 {
		t.Error("evictions recycled no snapshot states into the spare pool")
	}
}
