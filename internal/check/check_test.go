package check

import (
	"fmt"
	"testing"
)

// TestDefaultScheduleIsNoop is the tentpole invariant: installing a
// scheduler that always takes choice 0 reproduces the nil-scheduler
// execution exactly, for every protocol. The replay runs on the pooled
// runner; the nil-scheduler run is a fresh System.
func TestDefaultScheduleIsNoop(t *testing.T) {
	for _, tgt := range SweepTargets() {
		base := freshRun(tgt, nil, 0)
		if base.Failed() {
			t.Fatalf("%s: default run fails: %s", tgt.Name(), base.Failure())
		}
		replayed, _ := Replay(tgt, 0, nil, 64)
		if replayed.Failed() {
			t.Fatalf("%s: default replay fails: %s", tgt.Name(), replayed.Failure())
		}
		outcomesEqual(t, tgt.Name()+": default replay vs nil-scheduler run", replayed, base)
	}
}

// TestReplayDeterminism re-executes the same non-default schedule twice on
// one pooled runner and expects both outcomes to equal a fresh System's.
func TestReplayDeterminism(t *testing.T) {
	sched := []int{0, 1, 0, 1, 1}
	for _, tgt := range SweepTargets() {
		want := freshRun(tgt, NewReplay(sched, 12), 0)
		r := tgt.newRunner(0)
		for pass := 1; pass <= 2; pass++ {
			got, _ := replay(r, sched, 12)
			outcomesEqual(t, fmt.Sprintf("%s: schedule %v pass %d", tgt.Name(), sched, pass), got, want)
		}
	}
}

// TestRandomWalkIsReplayable: a random walk on the pooled runner, replayed
// deterministically from its recorded schedule on a fresh System,
// reproduces the walk's outcome.
func TestRandomWalkIsReplayable(t *testing.T) {
	for _, tgt := range SweepTargets() {
		r := tgt.newRunner(0)
		var walked Outcome
		for seed := uint64(1); seed <= 8; seed++ {
			walk := NewRandomWalk(12, seed, 0.4)
			r.run(&walked, walk, nil, false)
			want := freshRun(tgt, NewReplay(walk.Schedule(), 12), 0)
			outcomesEqual(t, fmt.Sprintf("%s: walk seed %d schedule %v", tgt.Name(), seed, walk.Schedule()), &walked, want)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	cases := [][]int{nil, {1}, {0, 2, 1}, {3, 0, 0, 5}}
	for _, s := range cases {
		got, err := ParseSchedule(FormatSchedule(s))
		if err != nil {
			t.Fatalf("ParseSchedule(%v): %v", s, err)
		}
		if len(got) != len(trimSlice(s)) {
			t.Errorf("round trip %v -> %v", s, got)
			continue
		}
		for i := range got {
			if got[i] != s[i] {
				t.Errorf("round trip %v -> %v", s, got)
			}
		}
	}
	if _, err := ParseSchedule("1,x"); err == nil {
		t.Error("ParseSchedule accepted garbage")
	}
}

func trimSlice(s []int) []int { return s } // schedules in cases carry no trailing zeros

func TestBranchAlt(t *testing.T) {
	// def=1, n=2: choice 0 -> 1 (default), choice 1 -> 0.
	if got := branchAlt(0, 2, 1); got != 1 {
		t.Errorf("branchAlt(0,2,1) = %d", got)
	}
	if got := branchAlt(1, 2, 1); got != 0 {
		t.Errorf("branchAlt(1,2,1) = %d", got)
	}
	// def=0, n=3: choices map to 0,1,2.
	for c, want := range []int{0, 1, 2} {
		if got := branchAlt(c, 3, 0); got != want {
			t.Errorf("branchAlt(%d,3,0) = %d, want %d", c, got, want)
		}
	}
}
