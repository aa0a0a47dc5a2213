package tls

import (
	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sim"
)

// Fork-point snapshots, mirroring the tm package: the model checker
// captures a run between scheduling quanta and resumes sibling schedules
// from the capture instead of replaying the shared prefix. Everything a
// schedule can influence is deep-copied — task speculative state, BDM
// version tables, caches, the committed image, the engine clock, stats
// with bandwidth counters. The keyScratch/supScratch buffers are dead at
// tick boundaries and are not captured.

// taskSnap is the deep-copied state of one speculative task. The BDM
// version is recorded as an index into the owning processor's module
// table (-1 when nil) so Restore can re-resolve it after LoadState.
//
//bulklint:snapstate
type taskSnap struct {
	state      taskState
	proc       int
	opIdx      int
	attempts   int
	lastRead   uint64
	wbuf       flatmap.Map[uint64]
	readW      flatmap.Set
	writeW     flatmap.Set
	readL      flatmap.Set
	writeL     flatmap.Set
	postSpawnW flatmap.Set
	spawned    bool
	awaitSpawn bool
	versionIdx int
	restartAt  int64
}

// procSnap is the deep-copied state of one processor.
//
//bulklint:snapstate
type procSnap struct {
	cache     cache.Snapshot
	module    bdm.ModuleState
	hasModule bool
	tasks     []int
	parkedAt  int64
}

// Snapshot is a deep copy of a System's mutable run state. The zero value
// grows on first capture; re-capturing into the same Snapshot reuses its
// storage.
//
//bulklint:snapstate
type Snapshot struct {
	mem        mem.Memory
	engine     sim.EngineState
	stats      Stats
	commitNext int
	procs      []procSnap
	tasks      []taskSnap
	//bulklint:snapstate-ignore size cache-budget estimate recomputed at every capture, never restored
	size int
}

// SizeBytes estimates the retained size of the snapshot for the explorer's
// snapshot-cache budget.
func (sn *Snapshot) SizeBytes() int { return sn.size }

// Snapshot captures the system's state into dst (allocating one if nil)
// and returns it. Must be called at a RunUntil pause point.
//
//bulklint:captures snapshot
//bulklint:captures snapshot Snapshot procSnap taskSnap proc task
func (s *System) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	dst.mem.CopyFrom(s.mem)
	s.engine.SaveState(&dst.engine)
	dst.stats = s.stats
	dst.commitNext = s.commitNext
	for len(dst.procs) < len(s.procs) {
		dst.procs = append(dst.procs, procSnap{})
	}
	size := 256 + dst.engine.SizeBytes() + s.mem.SizeBytes()
	for i, p := range s.procs {
		ps := &dst.procs[i]
		p.cache.SaveState(&ps.cache)
		ps.hasModule = p.module != nil
		if ps.hasModule {
			p.module.SaveState(&ps.module)
		}
		ps.tasks = append(ps.tasks[:0], p.tasks...)
		ps.parkedAt = p.parkedAt
		size += 64 + ps.cache.SizeBytes() + 8*cap(ps.tasks)
		if ps.hasModule {
			size += ps.module.SizeBytes()
		}
	}
	for len(dst.tasks) < len(s.tasks) {
		dst.tasks = append(dst.tasks, taskSnap{})
	}
	for i, t := range s.tasks {
		ts := &dst.tasks[i]
		ts.state, ts.proc = t.state, t.proc
		ts.opIdx, ts.attempts = t.opIdx, t.attempts
		ts.lastRead = t.exec.LastRead()
		ts.wbuf.CopyFrom(&t.wbuf)
		ts.readW.CopyFrom(&t.readW)
		ts.writeW.CopyFrom(&t.writeW)
		ts.readL.CopyFrom(&t.readL)
		ts.writeL.CopyFrom(&t.writeL)
		ts.postSpawnW.CopyFrom(&t.postSpawnW)
		ts.spawned, ts.awaitSpawn = t.spawned, t.awaitSpawn
		ts.versionIdx = -1
		if t.version != nil {
			ts.versionIdx = s.procs[t.proc].module.IndexOfVersion(t.version)
		}
		ts.restartAt = t.restartAt
		size += 96 + 17*ts.wbuf.Cap() +
			9*(ts.readW.Cap()+ts.writeW.Cap()+ts.readL.Cap()+ts.writeL.Cap()+ts.postSpawnW.Cap())
	}
	dst.size = size
	return dst
}

// Restore rewinds the system to a previously captured state. The scheduler
// and probe are not part of the state: reinstall the scheduler with
// SetScheduler before resuming; the probe given to NewSystem stays. Modules
// are reloaded before task versions are re-resolved, so version pointers
// always land in the reloaded tables.
//
//bulklint:captures restore
//bulklint:captures restore Snapshot procSnap taskSnap proc task
func (s *System) Restore(src *Snapshot) {
	s.mem.CopyFrom(&src.mem)
	s.engine.LoadState(&src.engine)
	s.stats = src.stats
	s.commitNext = src.commitNext
	for i, p := range s.procs {
		ps := &src.procs[i]
		p.cache.LoadState(&ps.cache)
		if ps.hasModule {
			p.module.LoadState(&ps.module)
		}
		p.tasks = append(p.tasks[:0], ps.tasks...)
		p.parkedAt = ps.parkedAt
	}
	for i, t := range s.tasks {
		ts := &src.tasks[i]
		t.state, t.proc = ts.state, ts.proc
		t.opIdx, t.attempts = ts.opIdx, ts.attempts
		t.exec.SetLastRead(ts.lastRead)
		t.wbuf.CopyFrom(&ts.wbuf)
		t.readW.CopyFrom(&ts.readW)
		t.writeW.CopyFrom(&ts.writeW)
		t.readL.CopyFrom(&ts.readL)
		t.writeL.CopyFrom(&ts.writeL)
		t.postSpawnW.CopyFrom(&ts.postSpawnW)
		t.spawned, t.awaitSpawn = ts.spawned, ts.awaitSpawn
		t.version = nil
		if ts.versionIdx >= 0 {
			t.version = s.procs[t.proc].module.VersionAt(ts.versionIdx)
		}
		t.restartAt = ts.restartAt
	}
}
