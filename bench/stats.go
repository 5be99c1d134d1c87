package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the p-th quantile (p in [0,1]) of xs by linear
// interpolation between closest ranks (numpy's default). 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// groupedPercentile is the p-th quantile of whole numbers that stand for
// the unit interval around them, such as durations taken from millisecond
// timestamps: it interpolates inside the interval holding the quantile, as
// Python's statistics.median_grouped does for the median. A plain
// percentile of such data moves in whole units and reads the same on
// nearly every run. 0 when empty.
func groupedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := p * float64(len(s))
	x := s[min(int(rank), len(s)-1)]
	below := sort.SearchFloat64s(s, x)
	same := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1))) - below
	return x - 0.5 + (rank-float64(below))/float64(same)
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return share(sum, float64(len(xs)))
}

// geomean is the geometric mean of the positive values in xs (0 when
// there are none). Latencies are never 0 in practice; the guard keeps
// a clock-resolution 0 from collapsing the mean.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share is num/den, or 0 for an empty denominator.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs is the cumulative count of heap objects allocated — the
// compiler's own operation count, repeatable to several digits.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// meter measures one section's wall time, CPU time and allocations.
// The allocation count is read outside the timed interval on both ends,
// because reading it stops the world.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func startMeter() meter {
	m := meter{mallocs: mallocs()}
	m.cpu = cpuTime()
	m.wall = time.Now()
	return m
}

// stop returns the section's wall seconds, CPU seconds and allocations.
func (m meter) stop() (wallS, cpuS float64, allocs uint64) {
	wallS = time.Since(m.wall).Seconds()
	cpuS = (cpuTime() - m.cpu).Seconds()
	return wallS, cpuS, mallocs() - m.mallocs
}
