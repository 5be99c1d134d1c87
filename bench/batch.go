package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetero/heterogen/internal/evalcache"
)

// passStats is one timed pass over a batch workload's job list.
type passStats struct {
	wallS, cpuS float64
	allocs      uint64
	latMS       []float64
	cache       evalcache.Stats
}

// timeSetup runs setup reps times and returns each duration in seconds.
// The workloads report the median, scaled by the run's probe like every
// other wall time: scaling each repetition by a probe sample taken just
// before it widened the spread of set-up times from 19% to 32% over 60
// repetitions, because one 3 ms sample is itself noisy.
func timeSetup(reps int, setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// batchMetrics turns the timed passes of a closed-loop batch workload
// into the end-to-end metrics: each timing is the median over passes,
// scaled to the reference host by the probe's speed sp.
func batchMetrics(o *outcome, setupS []float64, passes []passStats, rssMB float64, sp speed) {
	over := func(get func(p passStats) float64) float64 {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = get(p)
		}
		return median(vals)
	}
	wall := over(func(p passStats) float64 { return p.wallS })
	cpu := over(func(p passStats) float64 { return p.cpuS })
	geo := over(func(p passStats) float64 { return geomean(p.latMS) })
	p50 := over(func(p passStats) float64 { return percentile(p.latMS, 0.50) })
	p95 := over(func(p passStats) float64 { return percentile(p.latMS, 0.95) })
	o.metrics = map[string]float64{
		"setup_s":              sp.wall * median(setupS),
		"wall_s":               sp.wall * wall,
		"cpu_s":                sp.cpu * cpu,
		"job_geomean_ms":       sp.wall * geo,
		"job_p50_ms":           sp.wall * p50,
		"job_p95_ms":           sp.wall * p95,
		"sustained_jobs_per_s": over(func(p passStats) float64 { return share(float64(len(p.latMS)), p.wallS) }) / sp.wall,
		"ok_share":             1 - share(float64(o.failed), float64(o.attempted)),
		"allocs_per_job":       over(func(p passStats) float64 { return share(float64(p.allocs), float64(len(p.latMS))) }),
		"peak_rss_mb":          rssMB,
	}
	o.note("unscaled: setup_s %.4g wall_s %.4g cpu_s %.4g job_geomean_ms %.4g job_p50_ms %.4g job_p95_ms %.4g",
		median(setupS), wall, cpu, geo, p50, p95)
}

// gateAll runs gate(0..n-1) on every processor and returns the reasons
// ("" for a correct output). The gate runs outside the timed sections,
// so using every core only shortens the time between them.
func gateAll(n int, gate func(k int) string) []string {
	reasons := make([]string, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				reasons[k] = gate(k)
			}
		}()
	}
	wg.Wait()
	return reasons
}

// setHitShares sets the evalcache.*_hit_share metrics: each stage's hits
// over its lookups.
func setHitShares(m map[string]float64, st evalcache.Stats) {
	for _, stage := range []evalcache.Stage{evalcache.StageCheck, evalcache.StageDifftest, evalcache.StageFuzz} {
		s := st.Stages[stage]
		m["evalcache."+string(stage)+"_hit_share"] = share(float64(s.Hits), float64(s.Hits+s.Misses))
	}
}

// overheadShare compares a traced pass's wall time with an untraced pass
// of the same job list.
func overheadShare(untraced, traced passStats) float64 {
	return share(traced.wallS, untraced.wallS) - 1
}
