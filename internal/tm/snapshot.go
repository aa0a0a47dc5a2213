package tm

import (
	"sort"

	"bulk/internal/bdm"
	"bulk/internal/cache"
	"bulk/internal/flatmap"
	"bulk/internal/mem"
	"bulk/internal/sig"
	"bulk/internal/sim"
)

// Fork-point snapshots. The model checker executes thousands of schedules
// that share long prefixes; Snapshot/Restore let it capture a system
// between scheduling quanta (a RunUntil pause point) and resume siblings
// from the captured state instead of replaying from the root. A Snapshot
// deep-copies every piece of run state the schedule can influence — caches,
// BDM version tables, write buffers, exact sets, overflow areas, the
// committed memory image, the engine clock, the stats including bandwidth
// counters — so a restored run is byte-identical to one that executed the
// prefix from scratch. Scratch buffers (commit unions, spill staging) are
// dead between quanta and are deliberately not captured.

// secState is the deep-copied state of one transaction section. The BDM
// version is recorded by module table index, not pointer, so Restore can
// re-resolve it after ModuleState reload; flattened sections (nesting
// overflow) share an index exactly as they shared a version.
//
//bulklint:snapstate
type secState struct {
	startOp    int
	wbuf       flatmap.Map[uint64]
	readL      flatmap.Set
	writeL     flatmap.Set
	readW      flatmap.Set
	versionIdx int
	lastRead   uint64
}

// spillState holds one spilled section's signatures (preemption with
// SpillOnPreempt only — rare, so these clone rather than pool).
//
//bulklint:snapstate
type spillState struct {
	r, w   *sig.Signature
	secIdx int
}

// preemptSnap captures preemptState by value.
//
//bulklint:snapstate
type preemptSnap struct {
	valid    bool
	resumeAt int64
	doomed   bool
	spilled  []spillState
}

// procState is the deep-copied state of one processor.
//
//bulklint:snapstate
type procState struct {
	cache         cache.Snapshot
	module        bdm.ModuleState
	hasModule     bool
	over          *mem.OverflowArea
	lastRead      uint64
	segIdx        int
	opIdx         int
	done          bool
	inTxn         bool
	txnStart      int64
	attempts      int
	lastPreemptOp int
	stalledOn     int
	waiters       []int
	pairKeys      []int
	pairVals      []int
	sections      []secState
	nSections     int
	preempt       preemptSnap
}

// Snapshot is a deep copy of a System's mutable run state. The zero value
// grows on first capture; re-capturing into the same Snapshot reuses its
// storage, so the steady state of a snapshot pool is pure memcopy.
//
//bulklint:snapstate
type Snapshot struct {
	mem    mem.Memory
	engine sim.EngineState
	stats  Stats
	log    []CommitUnit
	real   uint64
	procs  []procState
	//bulklint:snapstate-ignore size cache-budget estimate recomputed at every capture, never restored
	size int
}

// SizeBytes estimates the retained size of the snapshot, recomputed at
// every capture, for the explorer's snapshot-cache budget.
func (sn *Snapshot) SizeBytes() int { return sn.size }

// Snapshot captures the system's state into dst (allocating one if nil)
// and returns it. Must be called at a RunUntil pause point — between
// scheduling quanta — where all scratch state is dead.
//
//bulklint:captures snapshot
//bulklint:captures snapshot Snapshot procState secState spillState preemptSnap proc section
func (s *System) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{}
	}
	dst.mem.CopyFrom(s.mem)
	s.engine.SaveState(&dst.engine)
	dst.stats = s.stats
	dst.log = append(dst.log[:0], s.log...)
	dst.real = s.real
	for len(dst.procs) < len(s.procs) {
		dst.procs = append(dst.procs, procState{})
	}
	size := 256 + dst.engine.SizeBytes() + s.mem.SizeBytes() + 32*cap(dst.log)
	for i, p := range s.procs {
		ps := &dst.procs[i]
		p.cache.SaveState(&ps.cache)
		ps.hasModule = p.module != nil
		if ps.hasModule {
			p.module.SaveState(&ps.module)
		}
		if ps.over == nil {
			ps.over = mem.NewOverflowArea()
		}
		ps.over.CopyFrom(p.over)
		ps.lastRead = p.exec.LastRead()
		ps.segIdx, ps.opIdx, ps.done = p.segIdx, p.opIdx, p.done
		ps.inTxn, ps.txnStart = p.inTxn, p.txnStart
		ps.attempts, ps.lastPreemptOp = p.attempts, p.lastPreemptOp
		ps.stalledOn = p.stalledOn
		ps.waiters = append(ps.waiters[:0], p.waiters...)
		// Launder the builtin map through a key sort so iteration order
		// cannot reach the snapshot bytes.
		ps.pairKeys = ps.pairKeys[:0]
		for k := range p.pairSquash {
			ps.pairKeys = append(ps.pairKeys, k)
		}
		sort.Ints(ps.pairKeys)
		ps.pairVals = ps.pairVals[:0]
		for _, k := range ps.pairKeys {
			ps.pairVals = append(ps.pairVals, p.pairSquash[k])
		}
		ps.nSections = len(p.sections)
		for len(ps.sections) < ps.nSections {
			ps.sections = append(ps.sections, secState{})
		}
		for j, sec := range p.sections {
			ss := &ps.sections[j]
			ss.startOp = sec.startOp
			ss.wbuf.CopyFrom(&sec.wbuf)
			ss.readL.CopyFrom(&sec.readL)
			ss.writeL.CopyFrom(&sec.writeL)
			ss.readW.CopyFrom(&sec.readW)
			ss.versionIdx = -1
			if sec.version != nil {
				ss.versionIdx = p.module.IndexOfVersion(sec.version)
			}
			ss.lastRead = sec.lastRead
			size += 64 + 17*ss.wbuf.Cap() +
				9*(ss.readL.Cap()+ss.writeL.Cap()+ss.readW.Cap())
		}
		ps.preempt.valid = false
		ps.preempt.spilled = ps.preempt.spilled[:0]
		if p.preempt != nil {
			ps.preempt.valid = true
			ps.preempt.resumeAt = p.preempt.resumeAt
			ps.preempt.doomed = p.preempt.doomed
			for _, sp := range p.preempt.spilled {
				ps.preempt.spilled = append(ps.preempt.spilled, spillState{
					r:      sp.sv.R.Clone(),
					w:      sp.sv.W.Clone(),
					secIdx: sectionIndex(p, sp.sec),
				})
			}
		}
		size += 128 + ps.cache.SizeBytes() + ps.over.SizeBytes() +
			8*(cap(ps.waiters)+2*cap(ps.pairKeys))
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
//bulklint:captures restore Snapshot procState secState spillState preemptSnap proc section
func (s *System) Restore(src *Snapshot) {
	s.mem.CopyFrom(&src.mem)
	s.engine.LoadState(&src.engine)
	s.stats = src.stats
	s.log = append(s.log[:0], src.log...)
	s.real = src.real
	for i, p := range s.procs {
		ps := &src.procs[i]
		p.cache.LoadState(&ps.cache)
		if ps.hasModule {
			p.module.LoadState(&ps.module)
		}
		p.over.CopyFrom(ps.over)
		p.exec.SetLastRead(ps.lastRead)
		p.segIdx, p.opIdx, p.done = ps.segIdx, ps.opIdx, ps.done
		p.inTxn, p.txnStart = ps.inTxn, ps.txnStart
		p.attempts, p.lastPreemptOp = ps.attempts, ps.lastPreemptOp
		p.stalledOn = ps.stalledOn
		p.waiters = append(p.waiters[:0], ps.waiters...)
		if p.pairSquash == nil {
			p.pairSquash = make(map[int]int, len(ps.pairKeys))
		} else {
			clear(p.pairSquash)
		}
		for k, key := range ps.pairKeys {
			p.pairSquash[key] = ps.pairVals[k]
		}
		// Rebuild the section stack through the same backing-array
		// recycling pushSection uses, so capacity survives restores.
		p.sections = p.sections[:0]
		for j := 0; j < ps.nSections; j++ {
			n := len(p.sections)
			var sec *section
			if n < cap(p.sections) {
				p.sections = p.sections[:n+1]
				sec = p.sections[n]
			}
			if sec == nil {
				sec = &section{}
				p.sections = append(p.sections[:n], sec)
			}
			ss := &ps.sections[j]
			sec.startOp = ss.startOp
			sec.wbuf.CopyFrom(&ss.wbuf)
			sec.readL.CopyFrom(&ss.readL)
			sec.writeL.CopyFrom(&ss.writeL)
			sec.readW.CopyFrom(&ss.readW)
			sec.version = nil
			if ss.versionIdx >= 0 {
				sec.version = p.module.VersionAt(ss.versionIdx)
			}
			sec.lastRead = ss.lastRead
		}
		p.preempt = nil
		if ps.preempt.valid {
			st := &preemptState{
				resumeAt: ps.preempt.resumeAt,
				doomed:   ps.preempt.doomed,
			}
			for _, sp := range ps.preempt.spilled {
				st.spilled = append(st.spilled, &bdmSpill{
					sv:  &spilledSig{R: sp.r.Clone(), W: sp.w.Clone()},
					sec: p.sections[sp.secIdx],
				})
			}
			p.preempt = st
		}
	}
}

// sectionIndex finds sec's position in p's section stack.
func sectionIndex(p *proc, sec *section) int {
	for i, x := range p.sections {
		if x == sec {
			return i
		}
	}
	return -1
}
