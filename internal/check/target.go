package check

import (
	"bulk/internal/ckpt"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/sim"
	"bulk/internal/tls"
	"bulk/internal/tm"
	"bulk/internal/workload"
)

// Target is one system the checker can drive: a fixed workload plus
// options, executed under a schedule and mutation set, judged by the
// target's oracles. The tm, tls and ckpt constructors below are its only
// implementations.
type Target interface {
	Name() string
	// newRunner builds a pooled runner over one System with muts applied.
	newRunner(muts mutate.Set) runner
}

// system is the runtime contract the checker drives. tm.System,
// tls.System and ckpt.System satisfy it, with P their *Snapshot and R
// their Result.
type system[P SnapState, R any] interface {
	RunUntil(pause func() bool) (done bool, err error)
	Snapshot(reuse P) P
	Restore(P)
	SetScheduler(sim.Scheduler)
	FinishInto(*R) *R
}

// target is the runtime-generic Target. Per runtime it needs three hooks;
// everything else — pooling, snapshot/resume, the soundness probe — is
// shared.
type target[P SnapState, R any] struct {
	name string
	// build constructs the System with muts applied and probe installed.
	build func(muts mutate.Set, probe *sim.Probe) (system[P, R], error)
	// verify is the serializability oracle (plus any target-specific
	// check) over a finished run's result.
	verify func(*R) error
	// fingerprint summarizes a finished run's observable outcome, reusing
	// *addrs as scratch for the sorted memory image.
	fingerprint func(res *R, addrs *[]uint64) uint64
}

// Name implements Target.
func (t *target[P, R]) Name() string { return t.name }

// newTMTarget checks a TM workload. check, when non-nil, is an extra
// oracle applied after Verify.
func newTMTarget(name string, w *workload.TMWorkload, opts tm.Options, check func(*tm.Result) error) Target {
	return &target[*tm.Snapshot, tm.Result]{
		name: name,
		build: func(muts mutate.Set, probe *sim.Probe) (system[*tm.Snapshot, tm.Result], error) {
			o := opts
			o.Mutate, o.Probe = muts, probe
			return tm.NewSystem(w, o)
		},
		verify: func(r *tm.Result) error {
			if err := tm.Verify(w, r); err != nil || check == nil {
				return err
			}
			return check(r)
		},
		fingerprint: func(r *tm.Result, addrs *[]uint64) uint64 {
			h := fp(fnvOffset)
			for _, u := range r.Log {
				h.mix(uint64(u.Thread), uint64(u.Segment), uint64(u.OpLo), uint64(u.OpHi))
			}
			h.mixMemInto(r.Memory, addrs)
			h.mix(r.Stats.Commits, r.Stats.Squashes, uint64(r.Stats.Cycles))
			return h.sum()
		},
	}
}

// newTLSTarget checks a TLS workload.
func newTLSTarget(name string, w *workload.TLSWorkload, opts tls.Options) Target {
	return &target[*tls.Snapshot, tls.Result]{
		name: name,
		build: func(muts mutate.Set, probe *sim.Probe) (system[*tls.Snapshot, tls.Result], error) {
			o := opts
			o.Mutate, o.Probe = muts, probe
			return tls.NewSystem(w, o)
		},
		verify: func(r *tls.Result) error { return tls.Verify(w, r) },
		fingerprint: func(r *tls.Result, addrs *[]uint64) uint64 {
			h := fp(fnvOffset)
			h.mixMemInto(r.Memory, addrs)
			h.mix(r.Stats.Commits, r.Stats.Squashes, r.Stats.CascadeSquashes,
				uint64(r.Stats.Cycles))
			return h.sum()
		},
	}
}

// newCkptTarget checks a checkpointed-multiprocessor workload.
func newCkptTarget(name string, w *ckpt.Workload, opts ckpt.Options) Target {
	return &target[*ckpt.Snapshot, ckpt.Result]{
		name: name,
		build: func(muts mutate.Set, probe *sim.Probe) (system[*ckpt.Snapshot, ckpt.Result], error) {
			o := opts
			o.Mutate, o.Probe = muts, probe
			return ckpt.NewSystem(w, o)
		},
		verify: func(r *ckpt.Result) error { return ckpt.Verify(w, r) },
		fingerprint: func(r *ckpt.Result, addrs *[]uint64) uint64 {
			h := fp(fnvOffset)
			for _, u := range r.Log {
				h.mix(uint64(u.Proc), uint64(u.Unit), uint64(int64(u.Op)))
			}
			h.mixMemInto(r.Memory, addrs)
			h.mix(r.Stats.Episodes, r.Stats.Rollbacks, uint64(r.Stats.Cycles))
			return h.sum()
		},
	}
}

// fp is an FNV-1a outcome fingerprint accumulator; start one at
// fp(fnvOffset).
type fp uint64

func (f *fp) mix(vs ...uint64) {
	x := uint64(*f)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			x ^= v & 0xff
			x *= fnvPrime
			v >>= 8
		}
	}
	*f = fp(x)
}

// mixMemInto folds the committed memory image into the fingerprint in
// ascending address order, reusing *scratch for the sorted address list.
func (f *fp) mixMemInto(m *mem.Memory, scratch *[]uint64) {
	*scratch = m.AppendSortedAddrs((*scratch)[:0])
	for _, a := range *scratch {
		f.mix(a, uint64(m.Read(a)))
	}
}

func (f *fp) sum() uint64 { return uint64(*f) }
