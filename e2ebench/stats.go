package main

import (
	"fmt"
	"sort"
	"time"

	"bpred/internal/rng"
)

// median returns the middle value (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) float64 {
	return median(seconds(ds))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sumDur(ds []time.Duration) float64 {
	t := 0.0
	for _, d := range ds {
		t += d.Seconds()
	}
	return t
}

// sum adds f over the samples.
func sum(samples []opSample, f func(opSample) float64) float64 {
	t := 0.0
	for _, s := range samples {
		t += f(s)
	}
	return t
}

// medianOf is the median of f over the samples.
func medianOf(samples []opSample, f func(opSample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

// tailOf returns the highest order statistic that still has ten
// samples above it, and its percentile. It refuses fewer than tailOps
// samples, where that statistic would fall below p90 and read as a
// second median rather than a tail.
func tailOf(ds []time.Duration) (time.Duration, float64, error) {
	n := len(ds)
	if n < tailOps {
		return 0, 0, fmt.Errorf("op_tail_s needs at least %d ops, have %d", tailOps, n)
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[n-11], 100 * float64(n-10) / float64(n), nil
}

// Host-noise probe: a dependent random walk over a buffer several
// times the size of one core's L2 (2 MB on the reference host), so its
// time per read tracks the memory system's state. It runs before and
// after a workload; a reading far from the usual one marks a disturbed
// host rather than a slower program.
const (
	probeWords = 8 << 20 // 32 MB of uint32 links
	probeReads = 4 << 20
)

// hostProbe returns the probe's nanoseconds per read.
func hostProbe(smoke bool) float64 {
	words, reads := probeWords, probeReads
	if smoke {
		words, reads = 1<<16, 1<<16
	}
	// Sattolo's shuffle makes one cycle through every slot, so the walk
	// never settles into a cache-resident loop.
	next := make([]uint32, words)
	for i := range next {
		next[i] = uint32(i)
	}
	g := rng.NewXoshiro256(1)
	for i := words - 1; i > 0; i-- {
		j := g.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	start := time.Now()
	p := uint32(0)
	for i := 0; i < reads; i++ {
		p = next[p]
	}
	el := time.Since(start)
	probeSink = p
	return float64(el.Nanoseconds()) / float64(reads)
}

// probeSink keeps the probe's walk from being optimized away.
var probeSink uint32
