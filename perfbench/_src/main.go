// Command perfbench is the repository's host-performance benchmark. One
// process runs one workload — tm-lu, tls-crafty, check-sweep or bulkd-mix —
// through the simulator's public entry points, checks every op's output
// against a verified warm-up op, and prints one JSON result line last.
//
// Usage:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-outdir <dir>]
//
// With -trace 0 the result carries the end-to-end metrics of a timed run;
// with -trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans and CPU profile are written under -outdir. ../README.md
// explains the workloads, the metrics and the steadiness rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A bench is one workload: one set of inputs the benchmark runs.
type bench struct {
	name string
	// setup generates the inputs from seed, builds the system under test
	// and runs one verified warm-up op, which every later op must match.
	setup func(seed uint64, tr *tracer) (instance, error)
	// traceOps is the fixed op count of each phase of the traced run, so
	// that its counts repeat exactly from run to run.
	traceOps int
}

// An instance is a set-up workload.
type instance interface {
	// op runs one op. items is the work it finished, in the workload's
	// unit. check compares the op's output with the warm-up op's; it runs
	// after the op's clock has stopped.
	op(tr *tracer) (items int, check func() error, err error)
	// layers records the per-layer counts of the ops run so far.
	layers(m metrics) error
	close()
}

var benches = []bench{
	{name: "tm-lu", setup: setupTMLU, traceOps: 40},
	{name: "tls-crafty", setup: setupTLSCrafty, traceOps: 40},
	{name: "check-sweep", setup: setupCheckSweep, traceOps: 10},
	{name: "bulkd-mix", setup: setupBulkdMix, traceOps: 120},
}

// rounds is how many times a timed run sets its workload up and then
// runs ops for its share of the run. setup_s is the median of the rounds'
// set-up times. Spread over the run, the set-ups sample the host's speed
// as the ops do, and one slow start does not move their median. The ops
// of all rounds are pooled.
const rounds = 8

// processStart is when the process started, near enough: package
// variables are initialised before main runs.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value; units come from the tables.
type metrics map[string]float64

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: tm-lu, tls-crafty, check-sweep or bulkd-mix")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
		outdir  = flag.String("outdir", ".", "directory for the traced run's spans and CPU profile")
	)
	flag.Parse()
	var w *bench
	for i := range benches {
		if benches[i].name == *name {
			w = &benches[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload tm-lu|tls-crafty|check-sweep|bulkd-mix, -seconds >= 1 and -trace 0|1")
		return 2
	}
	// One core for every workload: the explorer runs one worker, the
	// daemon one job worker, and a second core shared with other tenants
	// only adds noise (README.md, steadiness rules).
	runtime.GOMAXPROCS(1)

	var res result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, *outdir)
	} else {
		res, err = timed(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd lists the timed run's metrics with their units. The op times
// are in reference time (hostref.go), which the host's drifting speed
// moves far less than it moves host time.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_ref_s", "items/ref_s"},
	{"op_ref_ms_p50", "ref_ms"},
	{"op_ref_ms_tail", "ref_ms"},
	{"allocs_per_op", "allocs"},
	{"bytes_per_op", "bytes"},
	{"peak_rss_mb", "MB"},
}

// timed runs rounds rounds of set-up and ops, d in all, with tracing off
// and reports the end-to-end metrics.
func timed(w *bench, seed uint64, d time.Duration) (result, error) {
	ref, err := newHostRef()
	if err != nil {
		return result{}, err
	}
	defer ref.close()
	var setups, peaks []float64
	var ph phase
	var firstOp, ran time.Duration
	for r := 0; r < rounds; r++ {
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		start := time.Now()
		in, err := w.setup(seed, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if r == 0 {
			firstOp = time.Since(processStart)
		}
		// Each round runs until its share of d is used up, counted from
		// the first round on, so one round's last op, which ends past the
		// round's share, shortens the next round instead of the run.
		p := runPhase(in, nil, ref, d*time.Duration(r+1)/rounds-ran, 0)
		ran += p.wall
		ph.add(p)
		in.close()
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		// Less the reference kernel's mapping, resident throughout.
		peaks = append(peaks, rss-refBytes/(1<<20))
	}
	if len(ph.latMS) == 0 {
		return result{}, errors.New("no op finished")
	}

	// Each op's host time, and the same in reference time.
	hostMS := append([]float64(nil), ph.latMS...)
	refMS := make([]float64, len(hostMS))
	refSum := 0.0
	for i, lat := range hostMS {
		refMS[i] = lat * refScale(ph.refs, ph.midAt[i])
		refSum += refMS[i]
	}
	sort.Float64s(hostMS)
	sort.Float64s(refMS)
	tail, pct, beyond := tailOf(refMS)
	hostTail, _, _ := tailOf(hostMS)
	ops := float64(len(ph.latMS))
	m := metrics{
		"setup_s":        median(setups),
		"work_per_ref_s": float64(ph.items) / (refSum / 1000),
		"op_ref_ms_p50":  median(refMS),
		"op_ref_ms_tail": tail,
		"allocs_per_op":  float64(ph.mallocs) / ops,
		"bytes_per_op":   float64(ph.bytes) / ops,
		"peak_rss_mb":    median(peaks),
	}
	refSamples := make([]float64, len(ph.refs))
	for i, r := range ph.refs {
		refSamples[i] = r.ms
	}
	fmt.Printf("perfbench %s seed=%d: %d ops in %.2f s over %d rounds, %d failed; set-ups took %v s\n",
		w.name, seed, len(ph.latMS), ph.busy.Seconds(), rounds, ph.failed, roundAll(setups))
	fmt.Printf("process start to first timed op: %.4f s\n", firstOp.Seconds())
	fmt.Printf("peak RSS of each round: %v MB\n", roundAll(peaks))
	fmt.Printf("host time: work_per_s %.4f items/s, op_ms_p50 %.4f ms, op_ms_tail %.4f ms\n",
		ph.workPerS(), median(hostMS), hostTail)
	fmt.Printf("reference kernel: %d samples, median %.4f ms (%.4f ms makes a ref_ms a ms)\n",
		len(refSamples), median(refSamples), refNominalMS)
	fmt.Printf("op_ref_ms_tail is p%.2f: %d of %d samples lie beyond it\n", pct, beyond, len(refMS))
	out := result{Correct: ph.failed == 0, Attempted: len(ph.latMS), Failed: ph.failed,
		Metrics: map[string]metric{}}
	for _, e := range endToEnd {
		out.Metrics[e.name] = metric{Value: m[e.name], Unit: e.unit}
		fmt.Printf("  %-14s %14.4f %s\n", e.name, m[e.name], e.unit)
	}
	return out, nil
}

// traced runs the workload's fixed op count twice, once untraced and once
// with spans and a CPU profile, and reports the per-layer metrics. No
// end-to-end number comes from it.
func traced(w *bench, seed uint64, outdir string) (result, error) {
	in, err := w.setup(seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	base := runPhase(in, nil, nil, 0, w.traceOps)
	untraced := metrics{}
	err = in.layers(untraced)
	in.close()
	if err != nil {
		return result{}, err
	}
	runtime.GC()

	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return result{}, err
	}
	tr := newTracer()
	if in, err = w.setup(seed, tr); err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	defer in.close()
	profPath := filepath.Join(outdir, w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return result{}, err
	}
	ph := runPhase(in, tr, nil, 0, w.traceOps)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return result{}, err
	}
	if b, ok := in.(*bulkdMix); ok {
		ph.failed += b.checkLater(tr)
	}

	m := metrics{}
	for _, l := range perLayer {
		m[l.name] = 0
	}
	tr.medians(m)
	if err := in.layers(m); err != nil {
		return result{}, err
	}
	if c := m["sim.cycles"]; c > 0 {
		m["sim.host_ns_per_cycle"] = (m["tm.run_ms"] + m["tls.run_ms"]) * 1e6 / c
	}
	if err := cpuShares(profPath, m); err != nil {
		return result{}, err
	}
	m["bench.trace_overhead_pct"] = 100 * (base.workPerS() - ph.workPerS()) / base.workPerS()
	if err := tr.write(filepath.Join(outdir, w.name+".spans.jsonl")); err != nil {
		return result{}, err
	}

	failed := base.failed + ph.failed
	attempted := len(base.latMS) + len(ph.latMS)
	for _, l := range perLayer {
		if l.exact && m[l.name] != untraced[l.name] {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v traced but %v untraced\n", l.name, m[l.name], untraced[l.name])
			failed++
		}
	}
	fmt.Printf("perfbench %s seed=%d traced: %d ops untraced, %d traced, %d failed; spans and profile in %s\n",
		w.name, seed, len(base.latMS), len(ph.latMS), failed, outdir)
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, l := range perLayer {
		out.Metrics[l.name] = metric{Value: m[l.name], Unit: l.unit}
		fmt.Printf("  %-28s %16.4f %s\n", l.name, m[l.name], l.unit)
	}
	return out, nil
}

// phase is one stretch of ops with its latencies and allocation deltas.
// busy is the time spent inside ops: wall less the checks against the
// warm-up op and the reference samples. midAt holds each op's middle and
// refs the reference samples taken between ops, both timed from
// processStart.
type phase struct {
	latMS          []float64
	midAt          []time.Duration
	refs           []refAt
	items, failed  int
	wall, busy     time.Duration
	mallocs, bytes uint64
}

func (p phase) workPerS() float64 { return float64(p.items) / p.busy.Seconds() }

func (p *phase) add(q phase) {
	p.latMS = append(p.latMS, q.latMS...)
	p.midAt = append(p.midAt, q.midAt...)
	p.refs = append(p.refs, q.refs...)
	p.items += q.items
	p.failed += q.failed
	p.wall += q.wall
	p.busy += q.busy
	p.mallocs += q.mallocs
	p.bytes += q.bytes
}

// runPhase runs ops until d has passed, or exactly n ops when n > 0.
// With a reference kernel it samples the host's speed once at the start
// and then once per refEvery of op time, between ops.
func runPhase(in instance, tr *tracer, ref *hostRef, d time.Duration, n int) phase {
	p := phase{latMS: make([]float64, 0, 1<<14)}
	sample := func() {
		ms := float64(ref.sample()) / float64(time.Millisecond)
		p.refs = append(p.refs, refAt{at: time.Since(processStart), ms: ms})
	}
	var refDue time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if ref != nil {
		sample()
	}
	start := time.Now()
	for i := 1; (n > 0 && i <= n) || (n == 0 && time.Since(start) < d); i++ {
		tr.setOp(i)
		t := time.Now()
		items, check, err := in.op(tr)
		lat := time.Since(t)
		p.busy += lat
		p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
		p.midAt = append(p.midAt, t.Add(lat/2).Sub(processStart))
		if err == nil {
			err = check()
		}
		for ref != nil && p.busy >= refDue {
			sample()
			refDue += refEvery
		}
		if err != nil {
			if p.failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			}
			p.failed++
			continue
		}
		p.items += items
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	return p
}

// median of an ascending or unsorted sample; it sorts a copy.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of an ascending sample that has
// at least ten samples beyond it, that percentile, and how many lie beyond.
func tailOf(sorted []float64) (v, pct float64, beyond int) {
	n := len(sorted)
	if n <= 10 {
		return sorted[n-1], 100, 0
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n), 10
}

// resetPeakRSS resets the process's resident-set high-water mark, VmHWM,
// to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark, VmHWM, in
// MB of 2^20 bytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return out
}
