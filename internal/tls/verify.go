package tls

import (
	"fmt"

	"bulk/internal/cache"
	"bulk/internal/mem"
	"bulk/internal/sim"
	"bulk/internal/trace"
	"bulk/internal/workload"
)

// SequentialReference executes the task list purely sequentially (no
// caches, no speculation) and returns the final memory. This is the
// semantics TLS must preserve: the speculative run's committed memory must
// equal it exactly.
func SequentialReference(w *workload.TLSWorkload) *mem.Memory {
	m := mem.NewMemory()
	for i, tk := range w.Tasks {
		e := &trace.Executor{ThreadID: i}
		for oi, op := range tk.Ops {
			e.Step(oi, op,
				func(a uint64) uint64 { return uint64(m.Read(a)) },
				func(a, v uint64) { m.Write(a, mem.Word(v)) })
		}
	}
	return m
}

// Verify checks a TLS run against the sequential reference.
//
//bulklint:purehook
func Verify(w *workload.TLSWorkload, r *Result) error {
	if r.Stats.LivelockDetected {
		return fmt.Errorf("tls: run aborted by restart limit; nothing to verify")
	}
	if r.Stats.Commits != uint64(len(w.Tasks)) {
		return fmt.Errorf("tls: %d commits for %d tasks", r.Stats.Commits, len(w.Tasks))
	}
	ref := SequentialReference(w)
	if !ref.Equal(r.Memory) {
		diffs := ref.Diff(r.Memory, 5)
		return fmt.Errorf("tls: final memory differs from sequential execution at words %v "+
			"(run=%d words, seq=%d words)", diffs, r.Memory.Len(), ref.Len())
	}
	return nil
}

// RunSequential measures the baseline: the whole task list executed on one
// processor with the same cache and latency parameters, no speculation.
// Speedups in Figure 10 are schemes' cycle counts against this.
func RunSequential(w *workload.TLSWorkload, params sim.Params, cacheBytes, ways, lineBytes int) (int64, error) {
	if params == (sim.Params{}) {
		params = sim.DefaultTLS()
	}
	if cacheBytes == 0 {
		cacheBytes = 16 << 10
	}
	if ways == 0 {
		ways = 4
	}
	if lineBytes == 0 {
		lineBytes = 64
	}
	c, err := cache.New(cacheBytes, ways, lineBytes, 0)
	if err != nil {
		return 0, err
	}
	wordsPerLine := lineBytes / 4
	var cycles int64
	for _, tk := range w.Tasks {
		for _, op := range tk.Ops {
			cycles += int64(op.Think)
			line := cache.LineAddr(op.Addr / uint64(wordsPerLine))
			if c.Access(line) != nil {
				cycles += int64(params.HitLatency)
				if op.Kind != trace.Read {
					if l := c.Lookup(line); l != nil {
						c.MarkDirty(l)
					}
				}
				continue
			}
			cycles += int64(params.MemLatency)
			st := cache.Clean
			if op.Kind != trace.Read {
				st = cache.Dirty
			}
			c.Insert(line, st)
		}
	}
	return cycles, nil
}
