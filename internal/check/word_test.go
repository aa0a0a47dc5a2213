package check

import (
	"fmt"
	"sync/atomic"
	"testing"

	"bulk/internal/tm"
	"bulk/internal/workload"
)

// TestDisjointWordWritesNeverSquash is satellite coverage for Section 4.4:
// two transactions updating disjoint words of the same cache line must
// reconcile through the Updated Word Bitmask merge — zero squashes — under
// every interleaving the explorer can reach at depth <= 6, and the merge
// path must actually fire on at least one of those schedules.
func TestDisjointWordWritesNeverSquash(t *testing.T) {
	var merges atomic.Uint64
	opts := tm.NewOptions(tm.Bulk)
	opts.WordGranularity = true
	tgt := newTMTarget("tm-word-disjoint", tmWorkload("word-disjoint",
		[]workload.TMSegment{
			txn(wr(wordOf(lineL, 0)), wd(wordOf(lineB, 0))),
		},
		[]workload.TMSegment{
			txn(wr(wordOf(lineL, 1)), wd(wordOf(lineP0, 0))),
		},
	), opts, func(r *tm.Result) error {
		merges.Add(r.Stats.Merges)
		if r.Stats.Squashes != 0 {
			return fmt.Errorf("disjoint-word conflict squashed %d times; Updated Word Bitmask merge should have absorbed it", r.Stats.Squashes)
		}
		return nil
	})
	rep := Explore(tgt, 0, Budget{MaxSchedules: 50_000, Depth: 6})
	if rep.Failure != nil {
		t.Fatalf("schedule %s: %s", FormatSchedule(rep.Failure.Schedule), rep.Failure.Reason)
	}
	if merges.Load() == 0 {
		t.Errorf("no schedule among %d exercised the word-merge path; workload no longer overlaps the line", rep.Schedules)
	}
	t.Logf("%d schedules, %d distinct outcomes, %d merges observed",
		rep.Schedules, rep.Distinct, merges.Load())
}
