package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// perLayer lists the traced run's metrics. A metric with a span is the
// median duration of the spans of that name; the rest are counts, ratios
// and CPU shares the workloads fill in. An exact metric is a count of
// modelled events, or a ratio of two, that must repeat exactly at a given
// seed, traced or not. Every traced run prints every metric; one its
// workload never reaches reads 0.
var perLayer = []struct {
	name, unit, span string
	exact            bool
}{
	{"workload.generate_ms", "ms", "workload.generate", false},

	{"tm.new_system_ms", "ms", "tm.new_system", false},
	{"tm.run_ms", "ms", "tm.run", false},
	{"tm.verify_ms", "ms", "tm.verify", false},
	{"tm.cpu_share", "fraction", "", false},
	{"tm.commits", "count", "", true},
	{"tm.squashes", "count", "", true},
	{"tm.commit_ratio", "fraction", "", true},
	{"tm.false_squashes", "count", "", true},
	{"tm.overflow_accesses", "count", "", true},

	{"tls.new_system_ms", "ms", "tls.new_system", false},
	{"tls.run_ms", "ms", "tls.run", false},
	{"tls.verify_ms", "ms", "tls.verify", false},
	{"tls.cpu_share", "fraction", "", false},
	{"tls.squashes", "count", "", true},
	{"tls.cascade_squashes", "count", "", true},
	{"tls.commit_ratio", "fraction", "", true},
	{"tls.false_squashes", "count", "", true},
	{"tls.stall_cycles", "cycles", "", true},

	{"cache.cpu_share", "fraction", "", false},
	{"cache.hits", "count", "", true},
	{"cache.misses", "count", "", true},
	{"cache.evictions", "count", "", true},
	{"cache.dirty_evicts", "count", "", true},
	{"cache.invals", "count", "", true},

	{"sig.cpu_share", "fraction", "", false},
	{"bdm.cpu_share", "fraction", "", false},
	{"flatmap.cpu_share", "fraction", "", false},
	{"mem.cpu_share", "fraction", "", false},
	{"sim.cpu_share", "fraction", "", false},
	{"bus.cpu_share", "fraction", "", false},
	{"sim.cycles", "cycles", "", true},
	{"sim.host_ns_per_cycle", "ns/cycle", "", false},
	{"bus.total_bytes", "bytes", "", true},
	{"bus.inv_bytes", "bytes", "", true},
	{"bus.commit_bytes", "bytes", "", true},
	{"bus.fill_bytes", "bytes", "", true},

	{"check.tm-sweep_ms", "ms", "check.tm-sweep", false},
	{"check.tls-sweep_ms", "ms", "check.tls-sweep", false},
	{"check.ckpt-sweep_ms", "ms", "check.ckpt-sweep", false},
	{"check.cpu_share", "fraction", "", false},
	{"check.schedules", "count", "", true},
	{"check.distinct", "count", "", true},
	{"check.distinct_ratio", "fraction", "", true},

	{"serve.hit_ms_p50", "ms", "serve.hit", false},
	{"serve.miss_ms_p50", "ms", "serve.miss", false},
	{"serve.daemon_run_p50_ms", "ms", "", false},
	{"experiments.fig14_direct_ms", "ms", "experiments.fig14_direct", false},
	{"serve.cpu_share", "fraction", "", false},
	{"net.cpu_share", "fraction", "", false},
	{"par.cpu_share", "fraction", "", false},
	{"serve.cells_executed", "count", "", true},
	{"serve.cells_cached", "count", "", true},
	{"serve.cells_coalesced", "count", "", true},
	{"serve.cache_hit_ratio", "fraction", "", true},
	{"serve.rejected", "count", "", true},

	{"runtime.cpu_share", "fraction", "", false},
	{"bench.trace_overhead_pct", "%", "", false},
}

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the span open when this one began (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the timed run calls the same code untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)} }

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span and returns its ID for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.open, Op: t.op, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = id
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.open = s.Parent
}

// medianMS is the median duration of the spans named name, in ms.
func (t *tracer) medianMS(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return median(d)
}

// medians fills every span-backed per-layer metric.
func (t *tracer) medians(m metrics) {
	for _, l := range perLayer {
		if l.span != "" {
			m[l.name] = t.medianMS(l.span)
		}
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuShares groups the CPU profile's flat samples by package, using the
// toolchain's pprof, and stores each layer's share as <layer>.cpu_share.
func cpuShares(profPath string, m metrics) error {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-symbolize=none", profPath).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return fmt.Errorf("go tool pprof: bad flat%% %q", f[1])
		}
		shares[layerOf(f[5])] += pct / 100
	}
	if !inTable {
		return fmt.Errorf("go tool pprof: no table in output:\n%s", out)
	}
	for _, l := range perLayer {
		if layer, ok := strings.CutSuffix(l.name, ".cpu_share"); ok {
			m[l.name] = shares[layer]
		}
	}
	return nil
}

// layerOf names the layer a profiled function belongs to: the module's
// internal package name, "runtime" for the Go runtime, "net" for the
// network stack, or its package path otherwise.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i] // type arguments and receivers may hold '/' and '.'
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "bulk/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "bulk/internal/"), "/", 2)[0]
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall":
		return "net"
	}
	return pkg
}
