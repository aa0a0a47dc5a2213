package ckpt

import (
	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sim"
)

// Fork-point snapshots, mirroring the tm and tls packages: the model
// checker captures a run between scheduling quanta and resumes sibling
// schedules from the capture instead of replaying the shared prefix. All
// schedule-dependent state is deep-copied; the keyScratch/lineScratch
// buffers are dead at tick boundaries and are not captured.

// procSnap is the deep-copied state of one processor. The BDM version is
// recorded as a module-table index (-1 when nil) so Restore can re-resolve
// it after LoadState.
//
//bulklint:snapstate
type procSnap struct {
	cache      cache.Snapshot
	module     bdm.ModuleState
	hasModule  bool
	lastRead   uint64
	unit       int
	opIdx      int
	done       bool
	spec       bool
	versionIdx int
	wbuf       flatmap.Map[uint64]
	readW      flatmap.Set
	writeW     flatmap.Set
	tracking   bool
	attempts   int
	specStart  int64
	ckptReg    uint64
	stalled    bool
}

// Snapshot is a deep copy of a System's mutable run state. The zero value
// grows on first capture; re-capturing into the same Snapshot reuses its
// storage.
//
//bulklint:snapstate
type Snapshot struct {
	mem    mem.Memory
	engine sim.EngineState
	stats  Stats
	log    []CommitUnit
	procs  []procSnap
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
//bulklint:captures snapshot Snapshot procSnap proc
func (s *System) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	dst.mem.CopyFrom(s.mem)
	s.engine.SaveState(&dst.engine)
	dst.stats = s.stats
	dst.log = append(dst.log[:0], s.log...)
	for len(dst.procs) < len(s.procs) {
		dst.procs = append(dst.procs, procSnap{})
	}
	size := 256 + dst.engine.SizeBytes() + s.mem.SizeBytes() + 24*cap(dst.log)
	for i, p := range s.procs {
		ps := &dst.procs[i]
		p.cache.SaveState(&ps.cache)
		ps.hasModule = p.module != nil
		if ps.hasModule {
			p.module.SaveState(&ps.module)
		}
		ps.lastRead = p.exec.LastRead()
		ps.unit, ps.opIdx, ps.done = p.unit, p.opIdx, p.done
		ps.spec = p.spec
		ps.versionIdx = -1
		if p.version != nil {
			ps.versionIdx = p.module.IndexOfVersion(p.version)
		}
		ps.wbuf.CopyFrom(&p.wbuf)
		ps.readW.CopyFrom(&p.readW)
		ps.writeW.CopyFrom(&p.writeW)
		ps.tracking, ps.attempts = p.tracking, p.attempts
		ps.specStart, ps.ckptReg, ps.stalled = p.specStart, p.ckptReg, p.stalled
		size += 128 + ps.cache.SizeBytes() + 17*ps.wbuf.Cap() +
			9*(ps.readW.Cap()+ps.writeW.Cap())
		if ps.hasModule {
			size += ps.module.SizeBytes()
		}
	}
	dst.size = size
	return dst
}

// Restore rewinds the system to a previously captured state. The scheduler
// and probe are not part of the state: reinstall the scheduler with
// SetScheduler before resuming; the probe given to NewSystem stays.
//
//bulklint:captures restore
//bulklint:captures restore Snapshot procSnap proc
func (s *System) Restore(src *Snapshot) {
	s.mem.CopyFrom(&src.mem)
	s.engine.LoadState(&src.engine)
	s.stats = src.stats
	s.log = append(s.log[:0], src.log...)
	for i, p := range s.procs {
		ps := &src.procs[i]
		p.cache.LoadState(&ps.cache)
		if ps.hasModule {
			p.module.LoadState(&ps.module)
		}
		p.exec.SetLastRead(ps.lastRead)
		p.unit, p.opIdx, p.done = ps.unit, ps.opIdx, ps.done
		p.spec = ps.spec
		p.version = nil
		if ps.versionIdx >= 0 {
			p.version = p.module.VersionAt(ps.versionIdx)
		}
		p.wbuf.CopyFrom(&ps.wbuf)
		p.readW.CopyFrom(&ps.readW)
		p.writeW.CopyFrom(&ps.writeW)
		p.tracking, p.attempts = ps.tracking, ps.attempts
		p.specStart, p.ckptReg, p.stalled = ps.specStart, ps.ckptReg, ps.stalled
	}
}
