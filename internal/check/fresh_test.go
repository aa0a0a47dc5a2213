package check

import (
	"fmt"
	"slices"
	"testing"

	"bulk/internal/mutate"
	"bulk/internal/sim"
)

// freshRun is the reference execution the pooled runner is pinned
// against: a brand-new System for one schedule, built, verified and
// fingerprinted with the target's own hooks, with no pooling, restore or
// snapshot anywhere on the path. A nil sched keeps the runtime's built-in
// default scheduler.
func freshRun(t Target, sched sim.Scheduler, muts mutate.Set) *Outcome {
	return t.(interface {
		fresh(sim.Scheduler, mutate.Set) *Outcome
	}).fresh(sched, muts)
}

func (t *target[P, R]) fresh(sched sim.Scheduler, muts mutate.Set) *Outcome {
	out := &Outcome{}
	sys, err := t.build(muts, soundnessProbe(&out.Soundness))
	if err == nil {
		if sched != nil {
			sys.SetScheduler(sched)
		}
		_, err = sys.RunUntil(nil)
	}
	if err != nil {
		out.Err = err
		return out
	}
	var res R
	var addrs []uint64
	sys.FinishInto(&res)
	out.OracleErr = t.verify(&res)
	out.Fingerprint = t.fingerprint(&res, &addrs)
	return out
}

// freshReplay is freshRun under a deterministic replay of schedule,
// returning the recorded decision trace alongside the outcome.
func freshReplay(t Target, muts mutate.Set, schedule []int, depth int) (*Outcome, []Step) {
	sched := NewReplay(schedule, depth)
	return freshRun(t, sched, muts), sched.Trace()
}

// outcomesEqual compares every judged field of two outcomes.
func outcomesEqual(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		t.Errorf("%s: run error %v, want %v", label, got.Err, want.Err)
	}
	if fmt.Sprint(got.OracleErr) != fmt.Sprint(want.OracleErr) {
		t.Errorf("%s: oracle error %v, want %v", label, got.OracleErr, want.OracleErr)
	}
	if !slices.Equal(got.Soundness, want.Soundness) {
		t.Errorf("%s: soundness log %q, want %q", label, got.Soundness, want.Soundness)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("%s: fingerprint %#x, want %#x", label, got.Fingerprint, want.Fingerprint)
	}
}
