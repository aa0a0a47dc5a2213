package tls

import (
	"bulk/internal/bus"
	"bulk/internal/cache"
	"bulk/internal/sig"
	"bulk/internal/trace"
)

//bulklint:noalloc
func (s *System) lineOf(word uint64) uint64 { return word / uint64(s.wordsPerLine) }

// sigAddr maps a word address to the granularity the signatures encode.
func (s *System) sigAddr(word uint64) sig.Addr {
	if s.opts.LineGranularity {
		return sig.Addr(s.lineOf(word))
	}
	return sig.Addr(word)
}

// executeOp runs one op of task t on processor p. Returns the access cost
// and whether the op completed (false: the op squashed its own task via a
// Set Restriction conflict and must not advance).
func (s *System) executeOp(p *proc, t *task, op trace.Op) (int, bool) {
	if op.Kind == trace.Read {
		return s.taskRead(p, t, op), true
	}
	return s.taskWrite(p, t, op)
}

// readValue resolves the logical value a task observes: its own write
// buffer, then the nearest less-speculative active task's buffer (the
// eager cross-task forwarding TLS permits), then committed memory.
func (s *System) readValue(t *task, word uint64) uint64 {
	if v, ok := t.wbuf.Get(word); ok {
		return v
	}
	return s.forwardedValue(t, word)
}

// forwardedValue is readValue past the task's own buffer: the nearest
// less-speculative active task's buffer, then committed memory.
func (s *System) forwardedValue(t *task, word uint64) uint64 {
	for i := t.idx - 1; i >= 0; i-- {
		pre := s.tasks[i]
		if pre.state == tsCommitted {
			break // everything older is committed state
		}
		if !pre.active() {
			continue
		}
		if v, ok := pre.wbuf.Get(word); ok {
			return v
		}
	}
	return uint64(s.mem.Read(word))
}

func (s *System) taskRead(p *proc, t *task, op trace.Op) int {
	line := s.lineOf(op.Addr)
	cost := s.opts.Params.HitLatency
	value, buffered := t.wbuf.Get(op.Addr)
	if !buffered {
		if p.cache.Access(cache.LineAddr(line)) == nil {
			cost = s.fill(p, t, line)
		}
		value = s.forwardedValue(t, op.Addr)
	}
	t.readW.Add(op.Addr)
	t.readL.Add(line)
	if t.version != nil {
		p.module.OnRead(t.version, s.sigAddr(op.Addr))
	}
	t.exec.SetLastRead(value)
	return cost
}

func (s *System) taskWrite(p *proc, t *task, op trace.Op) (int, bool) {
	line := s.lineOf(op.Addr)
	cost := 0

	// Eager: the write is propagated immediately; any more-speculative
	// task that already read this word violated the dependence.
	if s.opts.Scheme == Eager {
		for j := t.idx + 1; j < len(s.tasks); j++ {
			v := s.tasks[j]
			if v.state == tsUnspawned {
				break
			}
			if v.active() && v.readW.Has(op.Addr) {
				s.stats.DepSetWords++
				s.squashFrom(j)
				break
			}
		}
		if !t.writeL.Has(line) {
			// First write to the line: broadcast the invalidation.
			s.stats.Bandwidth.Record(bus.Inv, bus.InvalidationBytes)
			cost += s.opts.Params.TransferCycles(bus.InvalidationBytes)
			for _, q := range s.procs {
				if q != p {
					q.cache.Invalidate(cache.LineAddr(line))
				}
			}
		}
	}

	// Bulk: Set Restriction check before the cache write.
	if t.version != nil {
		d := p.module.PrepareWrite(t.version, s.sigAddr(op.Addr))
		if !d.OK {
			// The set holds dirty lines of another speculative task on
			// this processor. Squash the more speculative of the two
			// (Section 4.5). The owner is an older task awaiting commit,
			// so that is us.
			s.stats.WrWrConflicts++
			victim := t.idx
			if d.ConflictOwner > t.idx {
				victim = d.ConflictOwner
			}
			s.squashFrom(victim)
			return 0, false
		}
		for _, wb := range d.SafeWritebacks {
			// Non-speculative dirty data is already reflected in
			// committed memory; the writeback is traffic only.
			p.cache.MarkClean(wb.Addr)
			s.stats.Bandwidth.Record(bus.WB, bus.WritebackBytes)
			cost += s.opts.Params.TransferCycles(bus.WritebackBytes)
		}
	}

	l := p.cache.Access(cache.LineAddr(line))
	if l == nil {
		cost += s.fill(p, t, line)
		l = p.cache.Lookup(cache.LineAddr(line))
	} else {
		cost += s.opts.Params.HitLatency
	}
	p.cache.MarkDirty(l)

	var value uint64
	if op.Kind == trace.WriteDep {
		value = trace.DepValue(t.exec.LastRead(), op.Addr)
	} else {
		value = trace.Value(t.idx, t.opIdx, op.Addr)
	}
	t.wbuf.Put(op.Addr, value)
	t.writeW.Add(op.Addr)
	t.writeL.Add(line)
	if t.spawned {
		t.postSpawnW.Add(op.Addr)
	}
	l.Data[int(op.Addr)%s.wordsPerLine] = value
	if t.version != nil {
		p.module.CommitWrite(t.version, s.sigAddr(op.Addr))
	}
	return cost, true
}

// fill brings a line into p's cache on behalf of task t, choosing the
// supplier: a less-speculative task's cache (forwarding), a neighbor with a
// non-speculative copy, or memory. More-speculative owners never supply.
func (s *System) fill(p *proc, t *task, line uint64) int {
	par := s.opts.Params
	latency := par.MemLatency

	// Suppliers: the tasks whose buffers may hold words of this line, in
	// the order readValue resolves — t itself, then active predecessors
	// newest first, stopping at committed state. taskWrite records the word
	// in wbuf and the line in writeL together, so writeL.Has(line) is exact.
	base := line * uint64(s.wordsPerLine)
	sup := s.supScratch[:0]
	if t.writeL.Has(line) {
		sup = append(sup, t)
	}
	nOwn := len(sup)
	for i := t.idx - 1; i >= 0; i-- {
		pre := s.tasks[i]
		if pre.state == tsCommitted {
			break
		}
		if !pre.active() {
			continue
		}
		if pre.writeL.Has(line) {
			sup = append(sup, pre)
		}
	}
	s.supScratch = sup
	if len(sup) > nOwn {
		// Forwarding: an active predecessor buffers words of this line.
		latency = par.NeighborLatency
	}
	if latency == par.MemLatency {
		// A neighbor cache with a non-speculative copy can supply.
		for _, q := range s.procs {
			if q == p {
				continue
			}
			l := q.cache.Lookup(cache.LineAddr(line))
			if l == nil {
				continue
			}
			if l.State == cache.Dirty {
				if s.specDirtyOwner(q, line) != nil {
					continue // speculative data of another task: nacked
				}
				q.cache.MarkClean(cache.LineAddr(line))
				s.stats.Bandwidth.Record(bus.Coh, bus.UpgradeBytes)
			}
			latency = par.NeighborLatency
			break
		}
	}
	s.stats.Bandwidth.Record(bus.Fill, bus.FillBytes)
	l, ev := p.cache.Insert(cache.LineAddr(line), cache.Clean)
	for w := 0; w < s.wordsPerLine; w++ {
		word := base + uint64(w)
		v, ok := uint64(0), false
		for _, u := range sup {
			if v, ok = u.wbuf.Get(word); ok {
				break
			}
		}
		if !ok {
			v = uint64(s.mem.Read(word))
		}
		l.Data[w] = v
	}
	if ev.State == cache.Dirty {
		// Speculative or not, the eviction is traffic; speculative values
		// survive in the owning task's write buffer.
		s.stats.Bandwidth.Record(bus.WB, bus.WritebackBytes)
	}
	return latency
}

// specDirtyOwner returns the active task on q whose write set covers the
// line, or nil.
func (s *System) specDirtyOwner(q *proc, line uint64) *task {
	for _, ti := range q.tasks {
		t := s.tasks[ti]
		if t.active() && t.writeL.Has(line) {
			return t
		}
	}
	return nil
}
