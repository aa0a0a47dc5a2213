package main

import (
	"errors"
	"fmt"

	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/check"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// tmTxnsPerThread sizes tm-lu so that retained state, not GC slack, sets
// peak RSS (README.md, steadiness rules).
const tmTxnsPerThread = 120

// tlsTasks sizes tls-crafty likewise.
const tlsTasks = 1600

// tmLU runs Bulk TM at line granularity on Table 7's lu profile. Every op
// simulates from empty modelled caches, as bulksim does.
type tmLU struct {
	w     *workload.TMWorkload
	items int
	ref   *tm.Result
	refCS cache.Stats
}

func setupTMLU(seed uint64, tr *tracer) (instance, error) {
	p, ok := workload.TMProfileByName("lu")
	if !ok {
		return nil, errors.New("TM profile lu not found")
	}
	p.TxnsPerThread = tmTxnsPerThread
	sp := tr.begin("workload.generate")
	b := &tmLU{w: workload.GenerateTM(p, seed)}
	tr.end(sp)
	for _, th := range b.w.Threads {
		for _, seg := range th.Segments {
			b.items += len(seg.Ops)
		}
	}
	var err error
	if b.ref, b.refCS, err = b.run(tr); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

// run simulates the workload once and verifies the result. Untraced it
// calls tm.Run; traced it makes the same calls one by one, with a span
// around each.
func (b *tmLU) run(tr *tracer) (*tm.Result, cache.Stats, error) {
	opts := tm.NewOptions(tm.Bulk)
	opts.CacheMeter = &cache.Meter{}
	var res *tm.Result
	var err error
	if tr == nil {
		res, err = tm.Run(b.w, opts)
	} else {
		sp := tr.begin("tm.new_system")
		var s *tm.System
		s, err = tm.NewSystem(b.w, opts)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("tm.run")
			if _, err = s.RunUntil(nil); err == nil {
				res = s.FinishInto(&tm.Result{})
			}
			tr.end(sp)
		}
	}
	if err != nil {
		return nil, cache.Stats{}, err
	}
	sp := tr.begin("tm.verify")
	err = tm.Verify(b.w, res)
	tr.end(sp)
	cs, _ := opts.CacheMeter.Snapshot()
	return res, cs, err
}

func (b *tmLU) op(tr *tracer) (int, func() error, error) {
	res, cs, err := b.run(tr)
	if err != nil {
		return 0, nil, err
	}
	return b.items, func() error {
		return sameRun(res.Stats == b.ref.Stats && cs == b.refCS, res.Memory.Equal(b.ref.Memory))
	}, nil
}

func (b *tmLU) layers(m metrics) error {
	st := &b.ref.Stats
	m["tm.commits"] = float64(st.Commits)
	m["tm.squashes"] = float64(st.Squashes)
	m["tm.commit_ratio"] = float64(st.Commits) / float64(st.Commits+st.Squashes)
	m["tm.false_squashes"] = float64(st.FalseSquashes)
	m["tm.overflow_accesses"] = float64(st.OverflowAccesses)
	simLayers(m, st.Cycles, &st.Bandwidth, b.refCS)
	return nil
}

func (b *tmLU) close() {}

// tlsCrafty runs Bulk TLS at word granularity on Table 6's crafty profile.
type tlsCrafty struct {
	w     *workload.TLSWorkload
	items int
	ref   *tls.Result
	refCS cache.Stats
}

func setupTLSCrafty(seed uint64, tr *tracer) (instance, error) {
	p, ok := workload.TLSProfileByName("crafty")
	if !ok {
		return nil, errors.New("TLS profile crafty not found")
	}
	p.Tasks = tlsTasks
	sp := tr.begin("workload.generate")
	b := &tlsCrafty{w: workload.GenerateTLS(p, seed)}
	tr.end(sp)
	for _, t := range b.w.Tasks {
		b.items += len(t.Ops)
	}
	var err error
	if b.ref, b.refCS, err = b.run(tr); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

func (b *tlsCrafty) run(tr *tracer) (*tls.Result, cache.Stats, error) {
	opts := tls.NewOptions(tls.Bulk)
	opts.CacheMeter = &cache.Meter{}
	var res *tls.Result
	var err error
	if tr == nil {
		res, err = tls.Run(b.w, opts)
	} else {
		sp := tr.begin("tls.new_system")
		var s *tls.System
		s, err = tls.NewSystem(b.w, opts)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("tls.run")
			if _, err = s.RunUntil(nil); err == nil {
				res = s.FinishInto(&tls.Result{})
			}
			tr.end(sp)
		}
	}
	if err != nil {
		return nil, cache.Stats{}, err
	}
	sp := tr.begin("tls.verify")
	err = tls.Verify(b.w, res)
	tr.end(sp)
	cs, _ := opts.CacheMeter.Snapshot()
	return res, cs, err
}

func (b *tlsCrafty) op(tr *tracer) (int, func() error, error) {
	res, cs, err := b.run(tr)
	if err != nil {
		return 0, nil, err
	}
	return b.items, func() error {
		return sameRun(res.Stats == b.ref.Stats && cs == b.refCS, res.Memory.Equal(b.ref.Memory))
	}, nil
}

func (b *tlsCrafty) layers(m metrics) error {
	st := &b.ref.Stats
	m["tls.squashes"] = float64(st.Squashes)
	m["tls.cascade_squashes"] = float64(st.CascadeSquashes)
	m["tls.commit_ratio"] = float64(st.Commits) / float64(st.Commits+st.Squashes)
	m["tls.false_squashes"] = float64(st.FalseSquashes)
	m["tls.stall_cycles"] = float64(st.StallCycles)
	simLayers(m, st.Cycles, &st.Bandwidth, b.refCS)
	return nil
}

func (b *tlsCrafty) close() {}

// sameRun reports how an op's output differs from the warm-up op's.
func sameRun(sameStats, sameMemory bool) error {
	switch {
	case !sameStats:
		return errors.New("statistics differ from the warm-up op's")
	case !sameMemory:
		return errors.New("final memory differs from the warm-up op's")
	}
	return nil
}

// simLayers fills the sim, bus and cache counts one simulation op makes.
func simLayers(m metrics, cycles int64, bw *bus.Bandwidth, cs cache.Stats) {
	m["sim.cycles"] = float64(cycles)
	m["bus.total_bytes"] = float64(bw.Total())
	m["bus.inv_bytes"] = float64(bw.Bytes(bus.Inv))
	m["bus.commit_bytes"] = float64(bw.CommitBytes())
	m["bus.fill_bytes"] = float64(bw.Bytes(bus.Fill))
	cacheLayers(m, cs)
}

func cacheLayers(m metrics, cs cache.Stats) {
	m["cache.hits"] = float64(cs.Hits)
	m["cache.misses"] = float64(cs.Misses)
	m["cache.evictions"] = float64(cs.Evictions)
	m["cache.dirty_evicts"] = float64(cs.DirtyEvicts)
	m["cache.invals"] = float64(cs.Invals)
}

// checkSweep explores every sweep target at the medium budget with one
// explorer worker. Its inputs are the fixed sweep targets; the seed does
// not change them.
type checkSweep struct {
	targets []check.Target
	ref     []*check.Report
}

func setupCheckSweep(_ uint64, tr *tracer) (instance, error) {
	b := &checkSweep{targets: check.SweepTargets()}
	var err error
	if b.ref, err = b.explore(tr); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

func (b *checkSweep) explore(tr *tracer) ([]*check.Report, error) {
	reps := make([]*check.Report, len(b.targets))
	for i, t := range b.targets {
		sp := tr.begin("check." + t.Name())
		reps[i] = check.ExploreParallel(t, 0, check.MediumBudget(), 1)
		tr.end(sp)
		if f := reps[i].Failure; f != nil {
			return nil, fmt.Errorf("%s: oracle rejected schedule %s: %s",
				t.Name(), check.FormatSchedule(f.Schedule), f.Reason)
		}
	}
	return reps, nil
}

func (b *checkSweep) op(tr *tracer) (int, func() error, error) {
	reps, err := b.explore(tr)
	if err != nil {
		return 0, nil, err
	}
	items := 0
	for _, rep := range reps {
		items += rep.Schedules
	}
	return items, func() error {
		for i, rep := range reps {
			if rep.Schedules != b.ref[i].Schedules || rep.Distinct != b.ref[i].Distinct {
				return fmt.Errorf("%s: %d schedules, %d distinct; the warm-up op had %d, %d",
					rep.Target, rep.Schedules, rep.Distinct, b.ref[i].Schedules, b.ref[i].Distinct)
			}
		}
		return nil
	}, nil
}

func (b *checkSweep) layers(m metrics) error {
	var schedules, distinct int
	for _, rep := range b.ref {
		schedules += rep.Schedules
		distinct += rep.Distinct
	}
	m["check.schedules"] = float64(schedules)
	m["check.distinct"] = float64(distinct)
	m["check.distinct_ratio"] = float64(distinct) / float64(schedules)
	return nil
}

func (b *checkSweep) close() {}
