package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSample is a reading of the runtime's CPU accounting, taken through
// runtime/metrics (no stop-the-world).
type cpuSample struct {
	gc   float64 // CPU seconds spent in the garbage collector
	used float64 // CPU seconds the process used (available minus idle)
}

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), used: s[1].Value.Float64() - s[2].Value.Float64()}
}

// heapAllocs reads the cumulative count of heap allocations, tiny ones
// included.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// gcCycles reads the number of completed collections.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcShare is the share of the process's CPU time the collector used
// between two readings.
func gcShare(a, b cpuSample) float64 {
	return ratio(b.gc-a.gc, b.used-a.used)
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99.9, p99, p95, p90 and p50 that leaves
// at least ten samples beyond it, as a fraction (0.99 for p99).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// medianRuns calls run n times, each after a collection so no run pays
// for the previous one's garbage, and returns the median of the
// durations run reports.
func medianRuns(n int, run func(i int) time.Duration) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		runtime.GC()
		ds[i] = run(i)
	}
	runtime.GC()
	return medianDuration(ds)
}

// medianDuration is the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
