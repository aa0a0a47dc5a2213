// Directed model-checking workloads. Each mutation in internal/mutate
// disables one load-bearing protocol decision; the workloads here are the
// smallest programs whose schedule space contains an interleaving where
// that decision is the only thing standing between the execution and an
// oracle violation. Think times steer the default timing so the killing
// race is a few canonical choices away from the default schedule.
package check

import (
	"fmt"

	"bulk/internal/ckpt"
	"bulk/internal/sig"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// Distinct cache lines, chosen apart from each other in both the cache
// index (low 7 bits of the line address) and the default signatures.
const (
	lineA  = 0x1043
	lineB  = 0x2087
	lineL  = 0x310b
	lineP0 = 0x4211
	lineP1 = 0x5317
	lineS  = 0x6429
)

func wordOf(line uint64, w int) uint64 {
	return line*workload.WordsPerLine + uint64(w)
}

func rd(a uint64) trace.Op { return trace.Op{Kind: trace.Read, Addr: a} }
func wr(a uint64) trace.Op { return trace.Op{Kind: trace.Write, Addr: a} }
func wd(a uint64) trace.Op { return trace.Op{Kind: trace.WriteDep, Addr: a} }
func think(op trace.Op, t int) trace.Op {
	op.Think = uint16(t)
	return op
}

func txn(ops ...trace.Op) workload.TMSegment {
	return workload.TMSegment{Txn: true, Ops: ops, Sections: []int{0}}
}

func plain(ops ...trace.Op) workload.TMSegment {
	return workload.TMSegment{Ops: ops}
}

func tmWorkload(name string, threads ...[]workload.TMSegment) *workload.TMWorkload {
	w := &workload.TMWorkload{Name: name}
	for _, segs := range threads {
		w.Threads = append(w.Threads, workload.TMThread{Segments: segs})
	}
	return w
}

func tmTarget(name string, w *workload.TMWorkload, mod func(*tm.Options)) Target {
	opts := tm.NewOptions(tm.Bulk)
	if mod != nil {
		mod(&opts)
	}
	return newTMTarget(name, w, opts, nil)
}

// --- Directed TM targets ---

// wrTermTarget kills DropWRTerm: t1's committed write to A must squash t0,
// which read A; dropping the W∩R term lets t0 commit a value derived from
// the stale read.
func wrTermTarget() Target {
	return tmTarget("tm-wr-term", tmWorkload("wr-term",
		[]workload.TMSegment{txn(rd(wordOf(lineA, 0)), wd(wordOf(lineB, 0)))},
		[]workload.TMSegment{txn(wr(wordOf(lineA, 0)))},
	), nil)
}

// wwTermTarget kills DropWWTerm: t1's committed write to B overlaps t0's
// buffered write to B. The squash does not change final memory (writes are
// position-deterministic), so the kill comes from the soundness oracle: the
// exact sets overlap but the mutated signature test reports no conflict.
func wwTermTarget() Target {
	return tmTarget("tm-ww-term", tmWorkload("ww-term",
		[]workload.TMSegment{txn(wr(wordOf(lineB, 0)), rd(wordOf(lineP0, 0)))},
		[]workload.TMSegment{txn(wr(wordOf(lineB, 0)))},
	), nil)
}

// cleanInvTarget kills SkipCleanInvalidation: t0 reads L outside a
// transaction (clean copy), t1 commits a write to L, then t0's transaction
// re-reads L. Without the clean-copy invalidation the transaction reads the
// stale cached line and commits a value derived from it.
func cleanInvTarget() Target {
	return tmTarget("tm-clean-inv", tmWorkload("clean-inv",
		[]workload.TMSegment{
			plain(rd(wordOf(lineL, 0))),
			txn(rd(wordOf(lineL, 0)), wd(wordOf(lineB, 0))),
		},
		[]workload.TMSegment{txn(wr(wordOf(lineL, 0)))},
	), nil)
}

// readHitTarget kills DropReadOnHit under word granularity: t0's read of
// word y hits in its own cache (its write to word x fetched the line), so
// the mutation never inserts y into R; t1's committed write to y is then
// missed by the signature test.
func readHitTarget() Target {
	return tmTarget("tm-read-hit", tmWorkload("read-hit",
		[]workload.TMSegment{
			txn(wr(wordOf(lineL, 0)), rd(wordOf(lineL, 1)), wd(wordOf(lineB, 0))),
		},
		[]workload.TMSegment{txn(wr(wordOf(lineL, 1)))},
	), func(o *tm.Options) { o.WordGranularity = true })
}

// wordMergeTarget kills SkipWordMerge: with t1 committing word y before t0
// reads it, the Updated Word Bitmask merge is what delivers the committed
// value into t0's dirty copy of the line. The same workload as
// readHitTarget — a different schedule exposes a different mutation.
func wordMergeTarget() Target {
	return tmTarget("tm-word-merge", tmWorkload("word-merge",
		[]workload.TMSegment{
			txn(wr(wordOf(lineL, 0)), rd(wordOf(lineL, 1)), wd(wordOf(lineB, 0))),
		},
		[]workload.TMSegment{txn(wr(wordOf(lineL, 1)))},
	), func(o *tm.Options) { o.WordGranularity = true })
}

// setRestrictionTarget kills SkipSetRestriction. The signature config only
// encodes the low 9 line-address bits (7-bit set index chunk plus a 2-bit
// chunk, so the decode stays exact), so any two lines whose addresses agree
// in those bits alias in the signature. t0 dirties line Y non-speculatively,
// then transactionally writes line X in the same set: the Set Restriction
// must write Y back before the speculative write lands. When t1's commit
// squashes t0, the W-signature bulk invalidation hits Y; with the writeback
// skipped, it destroys non-speculative dirty data the hygiene oracle flags.
func setRestrictionTarget() Target {
	cfg := sig.MustConfig("check-alias", []int{7, 2}, nil, sig.TMAddrBits)
	const lineX = uint64(0x1800)
	const lineY = lineX + 512 // same cache set, same low-9-bit chunk values
	probe := cfg.NewSignature()
	probe.Add(sig.Addr(lineX))
	if !probe.Contains(sig.Addr(lineY)) {
		panic("check: alias config no longer aliases same-set lines") //bulklint:invariant compile-time-constant config; a miss means the kill target is broken
	}
	return tmTarget("tm-set-restriction", tmWorkload("set-restriction",
		[]workload.TMSegment{
			plain(wr(wordOf(lineY, 0))),
			txn(wr(wordOf(lineX, 0)), rd(wordOf(lineA, 0)), rd(wordOf(lineP0, 0))),
		},
		[]workload.TMSegment{txn(wr(wordOf(lineA, 0)))},
	), func(o *tm.Options) { o.SigConfig = cfg })
}

// spillTarget kills SkipSpilledDisambiguation. t0's transaction is
// preempted after four ops with its signatures spilled to memory; t1's
// think time places its conflicting commit inside the preemption pause, so
// the spilled-signature scan is the only disambiguation that can doom t0.
func spillTarget() Target {
	return tmTarget("tm-spill", tmWorkload("spill",
		[]workload.TMSegment{
			txn(rd(wordOf(lineA, 0)), rd(wordOf(lineP0, 0)),
				rd(wordOf(lineP1, 0)), rd(wordOf(lineS, 0)),
				wd(wordOf(lineB, 0))),
		},
		[]workload.TMSegment{txn(think(wr(wordOf(lineA, 0)), 400))},
	), func(o *tm.Options) {
		o.PreemptEvery = 4
		o.PreemptPause = 800
		o.SpillOnPreempt = true
	})
}

// --- Directed TLS targets ---

func tlsTarget(name string, w *workload.TLSWorkload, procs int) Target {
	opts := tls.NewOptions(tls.Bulk)
	opts.Procs = procs
	return newTLSTarget(name, w, opts)
}

// shadowTarget kills DropShadowWrite: task0 writes A after spawning task1,
// so A lives in the shadow signature Wsh — the only signature Partial
// Overlap disambiguates the first child against. If task1 read A before
// the write, only Wsh can catch it.
func shadowTarget() Target {
	return tlsTarget("tls-shadow", &workload.TLSWorkload{
		Name: "shadow",
		Tasks: []workload.TLSTask{
			{Ops: []trace.Op{wr(wordOf(lineP0, 0)), wr(wordOf(lineA, 0))}, SpawnIndex: 0},
			{Ops: []trace.Op{rd(wordOf(lineA, 0)), wd(wordOf(lineB, 0))}, SpawnIndex: 1},
		},
	}, 2)
}

// cascadeTarget kills SkipSquashCascade. task1 reads X before task0 writes
// it and produces A (pre-spawn), which task2 consumes by forwarding. When
// task0's commit squashes task1, the cascade must squash task2 too: after
// task1 re-executes, its re-commit exempts the pre-spawn A write from
// first-child disambiguation (Partial Overlap), so a surviving task2 is
// never re-checked and commits a value derived from the stale forward.
func cascadeTarget() Target {
	return tlsTarget("tls-cascade", &workload.TLSWorkload{
		Name: "cascade",
		Tasks: []workload.TLSTask{
			{Ops: []trace.Op{rd(wordOf(lineP0, 0)), wr(wordOf(lineL, 0))}, SpawnIndex: 0},
			{Ops: []trace.Op{rd(wordOf(lineL, 0)), wd(wordOf(lineA, 0)), rd(wordOf(lineP1, 0))}, SpawnIndex: 1},
			{Ops: []trace.Op{rd(wordOf(lineA, 0)), wd(wordOf(lineB, 0))}, SpawnIndex: 1},
		},
	}, 3)
}

// --- Directed ckpt target ---

// stalledTarget kills SkipStalledRestart. proc0 runs a stalled episode
// (Stall mode) whose atomic commit the explorer can hold back; proc1's
// think time places its write to the episode's read set inside the window
// between the episode's reads and its commit, where only the stalled-
// restart check preserves atomicity.
func stalledTarget() Target {
	return newCkptTarget("ckpt-stalled", &ckpt.Workload{
		Name: "stalled",
		Procs: []ckpt.ProcStream{
			{Units: []ckpt.Unit{{Episode: &ckpt.Episode{
				MissAddr:  wordOf(lineS, 0),
				PredictOK: true,
				Ops:       []trace.Op{wd(wordOf(lineB, 0))},
			}}}},
			{Units: []ckpt.Unit{{Plain: []trace.Op{
				think(rd(wordOf(lineP1, 0)), 450),
				wr(wordOf(lineS, 0)),
			}}}},
		},
	}, ckpt.NewOptions(ckpt.Stall))
}

// --- Sweep targets (unmutated exhaustive exploration) ---

// SweepTargets returns one small contended workload per protocol, sized so
// a depth-bounded sweep reaches tens of thousands of distinct schedules.
func SweepTargets() []Target {
	return []Target{
		tmTarget("tm-sweep", tmWorkload("sweep",
			[]workload.TMSegment{
				txn(rd(wordOf(lineA, 0)), wd(wordOf(lineB, 0))),
				plain(wr(wordOf(lineP0, 0))),
			},
			[]workload.TMSegment{
				txn(wr(wordOf(lineA, 0)), rd(wordOf(lineB, 0))),
			},
			[]workload.TMSegment{
				plain(rd(wordOf(lineB, 0))),
				txn(wr(wordOf(lineB, 0)), rd(wordOf(lineS, 0))),
			},
		), nil),
		tlsTarget("tls-sweep", &workload.TLSWorkload{
			Name: "sweep",
			Tasks: []workload.TLSTask{
				{Ops: []trace.Op{rd(wordOf(lineP0, 0)), wr(wordOf(lineA, 0))}, SpawnIndex: 0},
				{Ops: []trace.Op{rd(wordOf(lineA, 0)), wd(wordOf(lineB, 0))}, SpawnIndex: 0},
				{Ops: []trace.Op{rd(wordOf(lineB, 0)), wd(wordOf(lineS, 0))}, SpawnIndex: 1},
			},
		}, 3),
		newCkptTarget("ckpt-sweep", &ckpt.Workload{
			Name: "sweep",
			Procs: []ckpt.ProcStream{
				{Units: []ckpt.Unit{
					{Plain: []trace.Op{wr(wordOf(lineS, 0))}},
					{Episode: &ckpt.Episode{
						MissAddr:  wordOf(lineS, 0),
						PredictOK: true,
						Ops:       []trace.Op{rd(wordOf(lineA, 0)), wd(wordOf(lineB, 0))},
					}},
				}},
				{Units: []ckpt.Unit{
					{Episode: &ckpt.Episode{
						MissAddr:  wordOf(lineA, 0),
						PredictOK: true,
						Ops:       []trace.Op{wd(wordOf(lineS, 0))},
					}},
					{Plain: []trace.Op{wr(wordOf(lineA, 0))}},
				}},
			},
		}, ckpt.NewOptions(ckpt.Bulk)),
	}
}

// TargetsByProtocol returns the sweep target for one protocol name.
func TargetsByProtocol(proto string) ([]Target, error) {
	all := SweepTargets()
	switch proto {
	case "all":
		return all, nil
	case "tm":
		return all[:1], nil
	case "tls":
		return all[1:2], nil
	case "ckpt":
		return all[2:3], nil
	default:
		return nil, fmt.Errorf("check: unknown protocol %q (want tm, tls, ckpt, or all)", proto)
	}
}
