package tls

import (
	"errors"
	"fmt"

	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sig"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// taskState is the lifecycle of a speculative task.
type taskState int

const (
	// tsUnspawned: the parent has not reached its spawn point.
	tsUnspawned taskState = iota
	// tsSpawnable: spawned, waiting for a processor.
	tsSpawnable
	// tsReady: assigned to a processor, waiting to (re)start.
	tsReady
	// tsRunning: executing.
	tsRunning
	// tsFinished: execution complete, waiting for the commit token.
	tsFinished
	// tsCommitted: retired.
	tsCommitted
)

//bulklint:snapstate
type task struct {
	//bulklint:snapstate-ignore idx immutable task identity fixed at construction
	idx      int
	state    taskState
	proc     int // -1 when unassigned
	opIdx    int
	attempts int
	exec     trace.Executor

	wbuf   flatmap.Map[uint64] // word -> speculative value
	readW  flatmap.Set         // exact read words
	writeW flatmap.Set         // exact write words
	readL  flatmap.Set         // exact read lines
	writeL flatmap.Set         // exact write lines
	// postSpawnW is the exact post-spawn write-word set: Lazy's exact
	// Partial Overlap equivalent.
	postSpawnW flatmap.Set
	spawned    bool // crossed the spawn point this execution
	// awaitSpawn gates a cascade-squashed task: its parent was also
	// squashed and must re-cross its spawn point (re-producing the
	// child's live-ins) before the child may restart. Without this gate a
	// child could re-read pre-spawn data the parent has not regenerated
	// yet and — correctly unprotected by Partial Overlap — commit stale
	// values.
	awaitSpawn bool

	version   *bdm.Version // Bulk only; allocated at claim, freed at commit
	restartAt int64
}

func (t *task) active() bool { return t.state == tsRunning || t.state == tsFinished }

func (t *task) resetSpec() {
	// All speculative tracking state keeps its capacity across restarts of
	// the same task — squash/restart churn allocates nothing.
	t.wbuf.Reset()
	t.readW.Reset()
	t.writeW.Reset()
	t.readL.Reset()
	t.writeL.Reset()
	t.postSpawnW.Reset()
	t.spawned = false
	t.opIdx = 0
	t.exec.Reset()
}

//bulklint:snapstate
type proc struct {
	//bulklint:snapstate-ignore id immutable processor identity fixed at construction
	id       int
	cache    *cache.Cache
	module   *bdm.Module // Bulk only
	tasks    []int       // assigned uncommitted task indices, ascending
	parkedAt int64
}

// System is a TLS run in progress.
//
//bulklint:snapstate
type System struct {
	//bulklint:snapstate-ignore opts immutable run configuration
	opts Options
	//bulklint:snapstate-ignore w immutable workload shared across schedules
	w      *workload.TLSWorkload
	mem    *mem.Memory
	engine *sim.Engine
	procs  []*proc
	tasks  []*task
	//bulklint:snapstate-ignore sigCfg immutable signature configuration
	sigCfg *sig.Config

	commitNext int
	stats      Stats
	//bulklint:snapstate-ignore wordsPerLine immutable line geometry
	wordsPerLine int

	// keyScratch is the reusable sorted-key buffer for write-buffer
	// iteration on the commit path; supScratch is the fill path's
	// line-supplier list.
	//
	//bulklint:snapstate-ignore keyScratch commit-path scratch dead between quanta
	keyScratch []uint64
	//bulklint:snapstate-ignore supScratch fill-path scratch dead between quanta
	supScratch []*task
}

// NewSystem prepares a TLS run.
func NewSystem(w *workload.TLSWorkload, opts Options) (*System, error) {
	if len(w.Tasks) == 0 {
		return nil, errors.New("tls: empty workload")
	}
	if opts.Procs <= 0 {
		opts.Procs = 4
	}
	if opts.Params == (sim.Params{}) {
		opts.Params = sim.DefaultTLS()
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 16 << 10
	}
	if opts.CacheWays == 0 {
		opts.CacheWays = 4
	}
	if opts.LineBytes == 0 {
		opts.LineBytes = 64
	}
	if opts.MaxVersions <= 0 {
		opts.MaxVersions = 2
	}
	if opts.RestartLimit == 0 {
		opts.RestartLimit = 1000
	}
	if opts.SigConfig == nil {
		opts.SigConfig = sig.DefaultTLS()
	}
	s := &System{
		opts:         opts,
		w:            w,
		mem:          mem.NewMemory(),
		engine:       sim.NewEngine(opts.Procs),
		sigCfg:       opts.SigConfig,
		wordsPerLine: opts.LineBytes / 4,
	}
	s.engine.SetScheduler(opts.Scheduler)
	for i := 0; i < opts.Procs; i++ {
		c, err := cache.New(opts.CacheBytes, opts.CacheWays, opts.LineBytes, s.wordsPerLine)
		if err != nil {
			return nil, err
		}
		p := &proc{id: i, cache: c}
		if opts.Scheme == Bulk {
			cfg := bdm.Config{
				Sig:         opts.SigConfig,
				MaxVersions: opts.MaxVersions,
				Mutate:      opts.Mutate,
			}
			if opts.LineGranularity {
				cfg.Index = sig.IndexSpec{LowBit: 0, Bits: c.IndexBits()}
			} else {
				wordBits := 0
				for wl := s.wordsPerLine; wl > 1; wl >>= 1 {
					wordBits++
				}
				cfg.Index = sig.IndexSpec{LowBit: wordBits, Bits: c.IndexBits()}
				cfg.WordsPerLine = s.wordsPerLine
			}
			m, err := bdm.New(cfg, c)
			if err != nil {
				return nil, fmt.Errorf("tls: proc %d: %w", i, err)
			}
			p.module = m
		}
		s.procs = append(s.procs, p)
	}
	s.tasks = make([]*task, len(w.Tasks))
	for i := range w.Tasks {
		t := &task{idx: i, proc: -1, exec: trace.Executor{ThreadID: i}}
		t.resetSpec()
		s.tasks[i] = t
	}
	s.tasks[0].state = tsSpawnable
	return s, nil
}

// Run executes the workload under the options and returns the result.
func Run(w *workload.TLSWorkload, opts Options) (*Result, error) {
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
// task has committed (or livelock tripped), and an error on deadlock.
func (s *System) tick() (running bool, err error) {
	if s.commitNext >= len(s.tasks) || s.stats.LivelockDetected {
		return false, nil
	}
	p := s.engine.Next()
	if p < 0 {
		// All processors parked. With a scheduler deferring commits,
		// the only legitimate way here is a finished head task whose
		// commit was deferred until nothing else could run — grant it.
		if s.forceCommitHead() {
			return true, nil
		}
		return false, fmt.Errorf("tls: deadlock at commitNext=%d", s.commitNext)
	}
	s.step(s.procs[p])
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
	if s.opts.Scheme == Bulk {
		for _, p := range s.procs {
			s.stats.SafeWritebacks += p.module.Stats().SafeWritebacks
		}
	}
	s.opts.Meter.Merge(&s.stats.Bandwidth)
	if s.opts.CacheMeter != nil {
		for _, p := range s.procs {
			s.opts.CacheMeter.Merge(p.cache.Stats())
		}
		s.opts.CacheMeter.AddRun()
	}
	*res = Result{Stats: s.stats, Memory: s.mem}
	return res
}

// SetScheduler swaps the scheduling hook — the explorer drives one pooled
// System through many schedules, installing a fresh replay scheduler per
// run.
func (s *System) SetScheduler(sched sim.Scheduler) {
	s.opts.Scheduler = sched
	s.engine.SetScheduler(sched)
}

// currentTask returns the oldest runnable task on p. blocked reports that
// the oldest pending task is gated on its parent's re-spawn — the
// processor must wait rather than run younger work out of order.
func (p *proc) currentTask(s *System) (t *task, blocked bool) {
	for _, ti := range p.tasks {
		c := s.tasks[ti]
		if c.state == tsRunning || c.state == tsReady {
			if c.awaitSpawn {
				return nil, true
			}
			return c, false
		}
	}
	return nil, false
}

// liveVersions counts p's uncommitted assigned tasks.
func (p *proc) liveVersions(s *System) int {
	n := 0
	for _, ti := range p.tasks {
		if s.tasks[ti].state != tsCommitted {
			n++
		}
	}
	return n
}

// forceCommitHead commits the head task directly when it is finished but
// its commit token was deferred by the scheduler and every processor has
// since parked. Returns whether a commit happened.
func (s *System) forceCommitHead() bool {
	if s.commitNext >= len(s.tasks) || s.tasks[s.commitNext].state != tsFinished {
		return false
	}
	s.commitTask(s.tasks[s.commitNext])
	return true
}

// step advances processor p by one action.
func (s *System) step(p *proc) {
	// A deferred head commit is retried every quantum, so a scheduler's
	// "defer" choice postpones the commit by exactly one decision.
	if s.opts.Scheduler != nil &&
		s.commitNext < len(s.tasks) && s.tasks[s.commitNext].state == tsFinished {
		s.tryCommitChain()
	}
	t, blocked := p.currentTask(s)
	if t == nil && !blocked {
		t = s.claim(p)
	}
	if t == nil {
		p.parkedAt = s.engine.Now()
		s.engine.Park(p.id)
		return
	}
	if t.state == tsReady {
		if t.restartAt > s.engine.Now() {
			s.engine.AdvanceTo(p.id, t.restartAt)
			return
		}
		s.startTask(p, t)
		s.engine.Advance(p.id, 1)
		return
	}
	// Running: execute one op.
	ops := s.w.Tasks[t.idx].Ops
	if t.opIdx >= len(ops) {
		s.finishTask(p, t)
		return
	}
	op := ops[t.opIdx]
	cost, ok := s.executeOp(p, t, op)
	if !ok {
		// The op squashed its own task (Set Restriction conflict); the
		// task is back in tsReady and will restart.
		return
	}
	t.opIdx++
	// Spawn point crossed?
	if t.opIdx-1 == s.w.Tasks[t.idx].SpawnIndex {
		cost += s.spawn(p, t)
	}
	s.engine.Advance(p.id, int(op.Think)+cost)
}

// claim assigns the lowest spawnable task to p if a version slot is free.
func (s *System) claim(p *proc) *task {
	if p.liveVersions(s) >= s.opts.MaxVersions {
		return nil
	}
	for i := s.commitNext; i < len(s.tasks); i++ {
		t := s.tasks[i]
		if t.state == tsSpawnable && t.proc < 0 && !t.awaitSpawn {
			t.proc = p.id
			t.state = tsReady
			p.tasks = append(p.tasks, i)
			if p.module != nil {
				v, err := p.module.AllocVersion(i)
				if err != nil {
					// No slot: undo the claim.
					t.proc = -1
					t.state = tsSpawnable
					p.tasks = p.tasks[:len(p.tasks)-1]
					return nil
				}
				t.version = v
			}
			return t
		}
		if t.state == tsUnspawned {
			break // later tasks cannot be spawnable yet
		}
	}
	return nil
}

// startTask transitions a Ready task to Running and applies the Partial
// Overlap spawn invalidation (Section 6.3): the child's cache drops clean
// lines the parent has written, so live-in reads fetch the parent's
// versions instead of stale memory copies.
func (s *System) startTask(p *proc, t *task) {
	t.state = tsRunning
	if p.module != nil {
		p.module.SetRunning(t.version)
	}
	if t.idx == 0 || t.attempts > 0 {
		return
	}
	parent := s.tasks[t.idx-1]
	if !parent.active() {
		return
	}
	switch s.opts.Scheme {
	case Bulk:
		if s.opts.PartialOverlap && parent.version != nil {
			p.module.SpawnInvalidate(parent.version.W)
		}
	case Lazy:
		// Exact equivalent: drop clean copies of the parent's written
		// lines.
		s.keyScratch = parent.writeL.SortedKeys(s.keyScratch[:0])
		for _, l := range s.keyScratch {
			if cl := p.cache.Lookup(cache.LineAddr(l)); cl != nil && cl.State == cache.Clean {
				p.cache.Invalidate(cache.LineAddr(l))
			}
		}
	}
}

// spawn marks the successor task spawnable and starts the shadow write
// signature.
func (s *System) spawn(p *proc, t *task) int {
	t.spawned = true
	if p.module != nil && s.opts.PartialOverlap {
		p.module.StartShadow(t.version)
	}
	if t.idx+1 < len(s.tasks) {
		child := s.tasks[t.idx+1]
		if child.state == tsUnspawned {
			child.state = tsSpawnable
			s.unparkAll()
		}
		if child.awaitSpawn {
			// The child was cascade-squashed; its live-ins have now been
			// regenerated, so it may restart.
			child.awaitSpawn = false
			s.unparkAll()
		}
	}
	return s.opts.Params.SpawnOverhead
}

// finishTask marks t finished and tries to advance the commit chain.
func (s *System) finishTask(p *proc, t *task) {
	t.state = tsFinished
	if p.module != nil {
		// The finished task's version stays in the BDM (preempted) while
		// the processor may run another task.
		p.module.SetRunning(nil)
	}
	s.tryCommitChain()
	// The processor looks for more work next quantum.
	s.engine.Advance(p.id, 1)
}

// unparkAll wakes every parked processor to re-evaluate scheduling.
func (s *System) unparkAll() {
	now := s.engine.Now()
	for _, p := range s.procs {
		if s.engine.Parked(p.id) {
			s.stats.StallCycles += now - p.parkedAt
			s.engine.Unpark(p.id, now)
		}
	}
}
