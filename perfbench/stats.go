package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it as resolved: with fewer, the value is one or two
// outliers and moves from run to run for no reason in the code.
const minBeyond = 10

// pct is a percentile as an exact fraction num/den, so that counting the
// samples beyond it needs no floating point (0.999·10000 is not 9990 in
// float64).
type pct struct {
	num, den int
	name     string
}

var (
	p50  = pct{50, 100, "p50"}
	p90  = pct{90, 100, "p90"}
	p99  = pct{99, 100, "p99"}
	p999 = pct{999, 1000, "p999"}
	// ladder is the set of percentiles the report may name, lowest first.
	ladder = []pct{p50, p90, p99, p999, {9999, 10000, "p9999"}}
)

// beyond is the number of samples of n that lie above percentile p.
func (p pct) beyond(n int) int { return n * (p.den - p.num) / p.den }

// resolves reports whether n samples put at least minBeyond beyond p.
func (p pct) resolves(n int) bool { return p.beyond(n) >= minBeyond }

// highestResolved returns the highest ladder percentile with at least
// minBeyond of n samples beyond it (the zero pct, named "", when not even
// the median has: fewer than 20 samples).
func highestResolved(n int) pct {
	var best pct
	for _, p := range ladder {
		if p.resolves(n) {
			best = p
		}
	}
	return best
}

// dist is a sorted sample set.
type dist []int64

func newDist(xs []int64) dist {
	d := append(dist(nil), xs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// at returns percentile p by nearest rank (0 for an empty set).
func (d dist) at(p pct) int64 {
	n := len(d)
	if n == 0 {
		return 0
	}
	rank := (n*p.num + p.den - 1) / p.den // ceil(n·p)
	if rank < 1 {
		rank = 1
	}
	return d[rank-1]
}

// maxParts is the most parts a window's samples are split into for
// windowed percentiles.
const maxParts = 10

// windowed splits xs, in the order the ops were due, into k contiguous
// parts and returns the median of the parts' percentile p, with k. k is
// the largest count up to maxParts for which every part resolves p, so a
// stall confined to a few parts — a descheduled vCPU, a GC cycle — moves
// the result by a part's rank, not by the whole window's tail; when no
// split resolves p, k is 1 and the result is p over all of xs.
func windowed(xs []int64, p pct) (int64, int) {
	k := maxParts
	for k > 1 && !p.resolves(len(xs)/k) {
		k--
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = float64(newDist(xs[i*len(xs)/k : (i+1)*len(xs)/k]).at(p))
	}
	return int64(median(vals)), k
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// median returns the median of xs (0 when empty), leaving xs unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// procSample is a snapshot of the process's resource counters.
type procSample struct {
	user, sys     time.Duration
	ctxSwitches   int64
	maxRSSKiB     int64
	allocs        uint64
	gcCPU, allCPU float64 // runtime/metrics cumulative CPU seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail on Linux with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := procSample{
		user:        time.Duration(ru.Utime.Nano()),
		sys:         time.Duration(ru.Stime.Nano()),
		ctxSwitches: ru.Nvcsw + ru.Nivcsw,
		maxRSSKiB:   ru.Maxrss,
	}
	metrics.Read(runtimeSamples)
	if v := runtimeSamples[0].Value; v.Kind() == metrics.KindUint64 {
		s.allocs = v.Uint64()
	}
	if v := runtimeSamples[1].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	if v := runtimeSamples[2].Value; v.Kind() == metrics.KindFloat64 {
		s.allCPU = v.Float64()
	}
	return s
}

// procDelta is the resource use between two samples.
type procDelta struct {
	cpu, sys    time.Duration
	ctxSwitches int64
	allocs      uint64
	gcCPUFrac   float64
}

func (b procSample) since(a procSample) procDelta {
	d := procDelta{
		cpu:         (b.user - a.user) + (b.sys - a.sys),
		sys:         b.sys - a.sys,
		ctxSwitches: b.ctxSwitches - a.ctxSwitches,
		allocs:      b.allocs - a.allocs,
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / all
	}
	return d
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 { return float64(sampleProc().maxRSSKiB) / 1024 }

// settle runs a GC so one phase's garbage is not collected on the next
// phase's clock.
func settle() { runtime.GC() }
