// Package ckpt is the checkpointed-multiprocessor runtime — the third
// environment the paper's introduction lists alongside TM and TLS
// (checkpointed processors such as CAVA/Cherry, the paper's refs [5,8,14]).
//
// A processor that would stall on a long-latency load can instead take a
// checkpoint, predict the load's value, and keep executing speculatively.
// The Bulk machinery is exactly what this needs: the speculative episode's
// reads and writes go into R and W signatures; remote writes arriving as
// invalidations are disambiguated with the membership test (a ∈ R ∨ a ∈ W
// squashes, possibly falsely due to aliasing); a failed validation or a
// conflict rolls back by bulk-invalidating the episode's dirty lines; a
// successful validation commits by broadcasting the W signature and
// clearing it — no per-line speculative state anywhere in the cache.
//
// The runtime compares three modes on the same workload:
//
//   - Stall: never speculate; pay the full miss latency every time.
//   - Exact: speculate with perfect (infinite) disambiguation state.
//   - Bulk: speculate with signatures; aliasing causes extra rollbacks.
//
// Correctness is checked like TM: committed episodes and non-speculative
// writes replay serially in commit order to the exact final memory.
package ckpt

import (
	"errors"
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/mutate"
	"bulk/internal/rng"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// Mode selects how processors handle long-latency loads.
type Mode int

const (
	// Stall waits out every long-latency load.
	Stall Mode = iota
	// Exact speculates past it with perfect disambiguation.
	Exact
	// Bulk speculates with address signatures.
	Bulk
)

func (m Mode) String() string {
	switch m {
	case Stall:
		return "Stall"
	case Exact:
		return "Exact"
	case Bulk:
		return "Bulk"
	default:
		return "Mode(?)"
	}
}

// Episode is one checkpointed stretch: a long-latency load followed by ops
// the processor may execute under a predicted value.
type Episode struct {
	// MissAddr is the word whose load misses for MissLatency cycles.
	MissAddr uint64
	// PredictOK tells whether the value prediction will validate.
	PredictOK bool
	// Ops execute speculatively under the prediction (the first op is
	// implicitly the long load itself; its loaded value becomes the
	// dependence register).
	Ops []trace.Op
}

// Workload is a set of per-processor episode streams, interleaved with
// non-speculative stretches.
//
// Episodes commit atomically (speculatively or via the buffered retry
// path); reads are conflict-tracked in both modes, so shared reads and
// shared writes are both safe — concurrent writers serialize in commit
// order, and any reader that observed pre-commit data restarts.
type Workload struct {
	Name  string
	Procs []ProcStream
}

// ProcStream is one processor's program: alternating plain segments and
// checkpointed episodes.
type ProcStream struct {
	// Units execute in order.
	Units []Unit
}

// Unit is either a non-speculative op run or a checkpointed episode.
type Unit struct {
	Episode *Episode // nil for a plain segment
	Plain   []trace.Op
}

// Options configures a run.
type Options struct {
	Mode Mode
	// MissLatency is the long-latency load cost in cycles (default 400).
	MissLatency int
	// SigConfig is the signature configuration for Bulk mode.
	SigConfig *sig.Config
	// Params are the timing parameters (sim.DefaultTM() if zero).
	Params sim.Params
	// CacheBytes/CacheWays/LineBytes describe the L1 (TM defaults).
	CacheBytes, CacheWays, LineBytes int
	// RetryLimit bounds episode re-executions (defensive).
	RetryLimit int
	// CacheMeter, when non-nil, receives every processor cache's final
	// event counters when the run finishes. Shareable across goroutines.
	CacheMeter *cache.Meter
	// Scheduler, when non-nil, drives every scheduling decision. Nil keeps
	// the default order byte-identically.
	Scheduler sim.Scheduler
	// Probe, when non-nil, receives conflict-decision events
	// (model-checker oracles). Bulk mode only.
	Probe *sim.Probe
	// Mutate enables seeded protocol mutations (model-checker teeth).
	Mutate mutate.Set
}

// NewOptions returns defaults for a mode.
func NewOptions(m Mode) Options {
	return Options{Mode: m, MissLatency: 400, Params: sim.DefaultTM()}
}

// Stats aggregates a run's measurements.
type Stats struct {
	// Episodes is the number of committed checkpointed episodes.
	Episodes uint64
	// Rollbacks counts episode rollbacks of any cause.
	Rollbacks uint64
	// MispredictRollbacks counts rollbacks due to failed validation.
	MispredictRollbacks uint64
	// ConflictRollbacks counts rollbacks due to remote writes hitting the
	// episode's footprint.
	ConflictRollbacks uint64
	// FalseRollbacks is the subset of conflict rollbacks with no exact
	// overlap (signature aliasing; Bulk only).
	FalseRollbacks uint64
	// StallCycles is time spent waiting out long loads (Stall mode, and
	// post-rollback refetches).
	StallCycles int64
	// Cycles is the total run time.
	Cycles int64
	// Bandwidth is the bus accounting.
	Bandwidth bus.Bandwidth
}

// Result is a completed run.
type Result struct {
	Stats  Stats
	Memory *mem.Memory
	Log    []CommitUnit
}

//bulklint:snapstate
type proc struct {
	//bulklint:snapstate-ignore id immutable processor identity fixed at construction
	id     int
	cache  *cache.Cache
	module *bdm.Module
	exec   trace.Executor

	unit, opIdx int
	done        bool

	// Speculative episode state.
	spec    bool
	version *bdm.Version
	wbuf    flatmap.Map[uint64]
	readW   flatmap.Set
	writeW  flatmap.Set
	// tracking marks readW as live for stalled-episode conflict checks
	// (it replaces the former readW != nil test; the sets themselves are
	// recycled rather than reallocated).
	tracking  bool
	attempts  int
	specStart int64
	ckptReg   uint64 // dependence register at the checkpoint
	stalled   bool   // the non-speculative path has paid its miss
}

// System is a checkpointed-multiprocessor run in progress.
//
//bulklint:snapstate
type System struct {
	//bulklint:snapstate-ignore opts immutable run configuration
	opts Options
	//bulklint:snapstate-ignore w immutable workload shared across schedules
	w      *Workload
	mem    *mem.Memory
	engine *sim.Engine
	procs  []*proc
	stats  Stats
	log    []CommitUnit
	//bulklint:snapstate-ignore wpl immutable line geometry
	wpl int // words per line

	// keyScratch is the reusable sorted-key buffer for write-buffer
	// iteration on the commit paths; lineScratch/lineKeys build the
	// committed write-line set without per-commit map allocation.
	//
	//bulklint:snapstate-ignore keyScratch commit-path scratch dead between quanta
	keyScratch []uint64
	//bulklint:snapstate-ignore lineScratch commit-path scratch dead between quanta
	lineScratch flatmap.Set
	//bulklint:snapstate-ignore lineKeys commit-path scratch dead between quanta
	lineKeys []uint64
}

// NewSystem prepares a run.
func NewSystem(w *Workload, opts Options) (*System, error) {
	if len(w.Procs) == 0 {
		return nil, errors.New("ckpt: empty workload")
	}
	if opts.MissLatency <= 0 {
		opts.MissLatency = 400
	}
	if opts.Params == (sim.Params{}) {
		opts.Params = sim.DefaultTM()
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 32 << 10
	}
	if opts.CacheWays == 0 {
		opts.CacheWays = 4
	}
	if opts.LineBytes == 0 {
		opts.LineBytes = 64
	}
	if opts.RetryLimit == 0 {
		opts.RetryLimit = 100
	}
	if opts.SigConfig == nil {
		opts.SigConfig = sig.DefaultTM()
	}
	s := &System{
		opts:   opts,
		w:      w,
		mem:    mem.NewMemory(),
		engine: sim.NewEngine(len(w.Procs)),
		wpl:    opts.LineBytes / 4,
	}
	s.engine.SetScheduler(opts.Scheduler)
	for i := range w.Procs {
		c, err := cache.New(opts.CacheBytes, opts.CacheWays, opts.LineBytes, 0)
		if err != nil {
			return nil, err
		}
		p := &proc{id: i, cache: c, exec: trace.Executor{ThreadID: i}}
		if opts.Mode == Bulk {
			m, err := bdm.New(bdm.Config{
				Sig:         opts.SigConfig,
				Index:       sig.IndexSpec{LowBit: 0, Bits: c.IndexBits()},
				MaxVersions: 1,
				Mutate:      opts.Mutate,
			}, c)
			if err != nil {
				return nil, fmt.Errorf("ckpt: proc %d: %w", i, err)
			}
			p.module = m
		}
		s.procs = append(s.procs, p)
	}
	return s, nil
}

// Run executes the workload under the options.
func Run(w *Workload, opts Options) (*Result, error) {
	s, err := NewSystem(w, opts)
	if err != nil {
		return nil, err
	}
	if _, err := s.RunUntil(nil); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// tick performs one scheduling quantum. Returns running=false when every
// processor finished, and an error on deadlock or a protocol failure.
func (s *System) tick() (running bool, err error) {
	p := s.engine.Next()
	if p < 0 {
		return false, errors.New("ckpt: all processors parked")
	}
	if s.procs[p].done {
		alldone := true
		for _, q := range s.procs {
			if !q.done {
				alldone = false
				break
			}
		}
		if alldone {
			return false, nil
		}
		s.engine.Park(p)
		return true, nil
	}
	if err := s.step(s.procs[p]); err != nil {
		return false, err
	}
	return true, nil
}

// RunUntil executes scheduling quanta until the workload completes or the
// pause hook returns true at a tick boundary (the state is then between
// quanta — a safe point to Snapshot). done reports completion; a paused
// run continues with another RunUntil call.
func (s *System) RunUntil(pause func() bool) (done bool, err error) {
	for {
		if pause != nil && pause() {
			return false, nil
		}
		running, err := s.tick()
		if err != nil {
			return false, err
		}
		if !running {
			return true, nil
		}
	}
}

// Finish assembles the result of a completed run. Call exactly once, after
// RunUntil reported done.
func (s *System) Finish() *Result {
	return s.FinishInto(&Result{})
}

// FinishInto is Finish writing into a caller-owned Result, so a pooled
// system driven through many runs finishes each without allocating.
func (s *System) FinishInto(res *Result) *Result {
	s.stats.Cycles = s.engine.Now()
	if s.opts.CacheMeter != nil {
		for _, p := range s.procs {
			s.opts.CacheMeter.Merge(p.cache.Stats())
		}
		s.opts.CacheMeter.AddRun()
	}
	*res = Result{Stats: s.stats, Memory: s.mem, Log: s.log}
	return res
}

// SetScheduler swaps the scheduling hook — the explorer drives one pooled
// System through many schedules, installing a fresh replay scheduler per
// run.
func (s *System) SetScheduler(sched sim.Scheduler) {
	s.opts.Scheduler = sched
	s.engine.SetScheduler(sched)
}

// GenerateWorkload builds a deterministic workload: each processor runs
// episodes of speculative work over private lines plus occasional shared
// lines, separated by plain segments whose writes create the invalidation
// traffic that conflicts (and, under Bulk, aliases) with the episodes.
func GenerateWorkload(procs, episodesPerProc int, predictRate float64, seed uint64) *Workload {
	root := rng.New(seed)
	w := &Workload{Name: fmt.Sprintf("ckpt-%d", seed)}
	for pi := 0; pi < procs; pi++ {
		r := root.Fork()
		var units []Unit
		for e := 0; e < episodesPerProc; e++ {
			// Plain segment: mostly private work, some shared writes.
			var plain []trace.Op
			n := 6 + r.Intn(10)
			for i := 0; i < n; i++ {
				addr := privWord(pi, r)
				if r.Bool(0.25) {
					addr = sharedWord(r)
				}
				k := trace.Read
				if r.Bool(0.35) {
					k = trace.Write
				}
				plain = append(plain, trace.Op{Kind: k, Addr: addr, Think: uint16(1 + r.Intn(3))})
			}
			units = append(units, Unit{Plain: plain})

			// Checkpointed episode: a long load of a shared word, then
			// speculative work that reads shared data (conflict-prone)
			// and writes private results derived from the loaded value.
			ep := &Episode{
				MissAddr:  sharedWord(r),
				PredictOK: r.Bool(predictRate),
			}
			en := 8 + r.Intn(12)
			for i := 0; i < en; i++ {
				var op trace.Op
				switch {
				case r.Bool(0.3):
					op = trace.Op{Kind: trace.Read, Addr: sharedWord(r)}
				case r.Bool(0.12):
					// Speculative update of a shared structure: the
					// source of cross-episode conflicts and, under small
					// signatures, of aliasing rollbacks.
					op = trace.Op{Kind: trace.WriteDep, Addr: sharedWord(r)}
				case r.Bool(0.4):
					op = trace.Op{Kind: trace.WriteDep, Addr: privWord(pi, r)}
				default:
					op = trace.Op{Kind: trace.Read, Addr: privWord(pi, r)}
				}
				op.Think = uint16(2 + r.Intn(4))
				ep.Ops = append(ep.Ops, op)
			}
			units = append(units, Unit{Episode: ep})
		}
		w.Procs = append(w.Procs, ProcStream{Units: units})
	}
	return w
}

// Address helpers reuse the TM layout discipline: private heaps
// discriminated in both S14 chunks, shared objects scattered.
func privWord(tid int, r *rng.Rand) uint64 {
	line := uint64(1<<20) | 1<<9 | uint64(tid&7)<<17 |
		uint64(r.Intn(1<<7))<<10 | uint64(r.Intn(1<<9))
	return line*16 + uint64(r.Intn(16))
}

// sharedPool is the number of shared objects processors contend on.
const sharedPool = 192

func sharedWord(r *rng.Rand) uint64 {
	line := workload.TMSharedObjectLine(r.Intn(sharedPool))
	return line*16 + uint64(r.Intn(16))
}
