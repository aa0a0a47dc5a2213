package check

import "bulk/internal/mutate"

// The checker's one execution path. A runner owns one long-lived System
// and drives it through many schedules by restoring a base snapshot (or a
// cached fork-point snapshot) between runs instead of rebuilding it.
// Exploration waves, random walks, replays and minimization all execute
// through it; the snapshot cache is an optional speed-up on top, never a
// second path.

// runner executes schedules against a pooled system. Runners are not safe
// for concurrent use; the explorer gives each worker its own.
type runner interface {
	// run executes the schedule sched was just Reset (or built) for,
	// filling out (which is reset first). With a non-nil cache the run may
	// resume from a cached fork-point snapshot and, when capture is set,
	// deposits its own fork-point capture for child schedules; the
	// deposited entry is returned (nil when no capture happened) so the
	// explorer can retire it once its children are all accounted for. The
	// explorer clears capture for runs whose children can never execute —
	// a budget-truncated final wave — where a deposit would be pure waste.
	run(out *Outcome, sched *ReplayScheduler, cache *snapCache, capture bool) *snapEntry
}

// pooled is the runner of a target[P, R].
//
//bulklint:snapstate
type pooled[P SnapState, R any] struct {
	t     *target[P, R]
	sys   system[P, R]
	err   error    // build error, reported by every run
	base  P        // the system's state before any quantum
	viol  []string // soundness-probe sink, reset per schedule
	res   R        // FinishInto buffer; the oracles read it transiently
	addrs []uint64 // fingerprint scratch
}

// newRunner implements Target.
func (t *target[P, R]) newRunner(muts mutate.Set) runner {
	r := &pooled[P, R]{t: t}
	r.sys, r.err = t.build(muts, soundnessProbe(&r.viol))
	if r.err == nil {
		var fresh P
		r.base = r.sys.Snapshot(fresh)
	}
	return r
}

// run implements runner.
//
//bulklint:captures reset
func (r *pooled[P, R]) run(out *Outcome, sched *ReplayScheduler, cache *snapCache, capture bool) *snapEntry {
	out.reset()
	if r.err != nil {
		out.Err = r.err
		return nil
	}
	r.viol = r.viol[:0]
	prefix := sched.prefix
	var entry *snapEntry
	if cache != nil {
		entry = cache.lookup(prefix)
	}
	if entry != nil {
		sched.Resume(entry.count, entry.steps)
		r.sys.Restore(entry.state.(P))
		cache.release(entry)
	} else {
		r.sys.Restore(r.base)
	}
	r.sys.SetScheduler(sched)
	done := false
	var err error
	var captured *snapEntry
	if cache != nil && capture && len(prefix) > 0 && len(prefix) < sched.depth {
		// Fork-point capture: pause at the first tick boundary past the
		// forced prefix — the state every child row of this prefix shares.
		captureAt := len(prefix)
		done, err = r.sys.RunUntil(func() bool { return sched.Count() >= captureAt })
		if err == nil && !done {
			spare, _ := cache.takeSpare().(P)
			captured = cache.insert(prefix, sched.Count(), sched.Trace(), r.sys.Snapshot(spare))
		}
	}
	if err == nil && !done {
		_, err = r.sys.RunUntil(nil)
	}
	// Soundness violations land in the outcome whether or not the run
	// errored.
	if len(r.viol) > 0 {
		out.Soundness = append(out.Soundness, r.viol...)
	}
	if err != nil {
		out.Err = err // fingerprint stays 0
		return captured
	}
	res := r.sys.FinishInto(&r.res)
	out.OracleErr = r.t.verify(res)
	out.Fingerprint = r.t.fingerprint(res, &r.addrs)
	return captured
}

// reset clears an Outcome for reuse, dropping retained slices so pooled
// outcomes never alias a previous schedule's soundness log.
//
//bulklint:captures reset
func (o *Outcome) reset() {
	*o = Outcome{}
}
