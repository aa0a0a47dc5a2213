package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its memory system with other
// tenants, and its speed for memory-heavy code drifts by a third or more
// over tens of seconds (README.md, Reference time). A hostRef measures that
// speed while a timed run goes on: between ops it runs a fixed kernel, a
// model of an 8-way set-associative cache over a 12 MiB tag and LRU-stamp
// array probed at random lines. The simulator's op times track this
// kernel's time far more closely than they track a pointer chase or an
// ALU loop. The kernel is the benchmark's own code: a change to the
// program does not change it.
//
// The arrays live outside the Go heap, in an anonymous mapping that is
// written in full up front. So they do not move the garbage collector's
// pacing, and they add exactly refBytes to the process's resident set,
// which timed takes back out of peak_rss_mb.
type hostRef struct {
	mem    []byte
	tags   []uint64
	stamps []uint32
	x      uint64
	clock  uint32
}

const (
	refLines = 1 << 20 // 8 ways × 2^17 sets
	refWays  = 8
	refSets  = refLines / refWays
	// refSpace is the number of distinct lines the kernel's addresses
	// fall on, four times the model's capacity.
	refSpace = 4 * refLines
	refBytes = refLines * (8 + 4)
	// refProbes is the kernel's work per sample: a few milliseconds.
	refProbes = 50_000
	// refEvery is how much op time passes between two samples.
	refEvery = 125 * time.Millisecond
	// refWindow is how far from an op its samples may lie.
	refWindow = 1500 * time.Millisecond
	// refNominalMS defines the reference millisecond, ref_ms: the host's
	// current sample time divided by refNominalMS. On a host whose sample
	// takes refNominalMS milliseconds, a ref_ms is a millisecond.
	refNominalMS = 6.0
)

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	r := &hostRef{
		mem:    mem,
		tags:   unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refLines),
		stamps: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[refLines*8])), refLines),
		x:      0x9e3779b97f4a7c15,
	}
	for i := range r.tags {
		r.tags[i] = ^uint64(0) // no line's tag
		r.stamps[i] = 0
	}
	// Fill the model before the first sample counts.
	for i := 0; i < refSpace/refProbes; i++ {
		r.sample()
	}
	return r, nil
}

// sample runs refProbes lookups and returns how long they took.
func (r *hostRef) sample() time.Duration {
	start := time.Now()
	x := r.x
	for i := 0; i < refProbes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := x % refSpace
		base := int(line%refSets) * refWays
		tag := line / refSets
		r.clock++
		victim, oldest, hit := base, r.stamps[base], false
		for w := base; w < base+refWays; w++ {
			if r.tags[w] == tag {
				r.stamps[w] = r.clock
				hit = true
				break
			}
			if r.stamps[w] < oldest {
				victim, oldest = w, r.stamps[w]
			}
		}
		if !hit {
			r.tags[victim], r.stamps[victim] = tag, r.clock
		}
	}
	r.x = x
	return time.Since(start)
}

func (r *hostRef) close() {
	if r != nil {
		_ = syscall.Munmap(r.mem)
	}
}

// refAt is one reference sample: when it ran and how long it took.
type refAt struct {
	at time.Duration // since processStart
	ms float64
}

// refScale is the factor that turns an op's host time into reference
// time: refNominalMS over the median of the samples within refWindow of
// the op's middle, or of the three nearest samples if fewer lie there.
func refScale(samples []refAt, mid time.Duration) float64 {
	type near struct {
		dist time.Duration
		ms   float64
	}
	all := make([]near, len(samples))
	var in []float64
	for i, s := range samples {
		d := s.at - mid
		if d < 0 {
			d = -d
		}
		all[i] = near{d, s.ms}
		if d <= refWindow {
			in = append(in, s.ms)
		}
	}
	if len(in) < 3 {
		sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
		in = in[:0]
		for _, n := range all[:min(3, len(all))] {
			in = append(in, n.ms)
		}
	}
	return refNominalMS / median(in)
}
