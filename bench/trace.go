package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/obs"
)

// span is one timed interval recorded around a call into a layer.
// Times are nanoseconds since the process started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for roots
	Job    string `json:"job"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs stay untraced.
type recorder struct {
	mu    sync.Mutex
	spans []span
	// busy accumulates the time spent inside the recorder itself.
	busy time.Duration
}

func since(t time.Time) int64 { return int64(t.Sub(procStart)) }

// open starts a span now and returns its index (-1 on a nil recorder).
func (r *recorder) open(name string, parent int, job string) int {
	if r == nil {
		return -1
	}
	t0 := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: since(t0), End: -1, Parent: parent, Job: job})
	r.busy += time.Since(t0)
	return len(r.spans) - 1
}

// close ends span i now and returns its duration.
func (r *recorder) close(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	t0 := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.End = since(t0)
	r.busy += time.Since(t0)
	return time.Duration(s.End - s.Start)
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, start, end time.Time, parent int, job string) int {
	if r == nil {
		return -1
	}
	t0 := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: since(start), End: since(end), Parent: parent, Job: job})
	r.busy += time.Since(t0)
	return len(r.spans) - 1
}

// timed runs f inside a span and returns its duration.
func (r *recorder) timed(name string, parent int, job string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(name, t0, t1, parent, job)
	return t1.Sub(t0)
}

// stat aggregates the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// stats sums duration and self time per span name. Self time is a
// span's duration minus the part of its interval its children cover.
func (r *recorder) stats() map[string]spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		st := out[s.Name]
		st.Count++
		dur := s.End - s.Start
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[i])) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// meanUS returns the mean duration in microseconds of spans named name.
func meanUS(stats map[string]spanStat, name string) float64 {
	st := stats[name]
	return share(st.TotalMS*1000, float64(st.Count))
}

// write saves every span plus the per-name totals as JSON.
func (r *recorder) write(path string) error {
	stats := r.stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span              `json:"spans"`
		ByName map[string]spanStat `json:"by_name"`
	}{r.spans, stats})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// jobObserver is the benchmark-owned obs.Observer attached to one traced
// pipeline run: pipeline phase brackets become child spans of the job's
// span, and fuzz executions and repair candidates are counted.
type jobObserver struct {
	rec    *recorder
	parent int
	job    string

	mu         sync.Mutex
	open       map[string]int
	phaseMS    map[string]float64
	fuzzExecs  int
	candidates int
}

func newJobObserver(rec *recorder, parent int, job string) *jobObserver {
	return &jobObserver{rec: rec, parent: parent, job: job,
		open: map[string]int{}, phaseMS: map[string]float64{}}
}

func (o *jobObserver) Emit(e obs.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch e.Type {
	case obs.EvPhaseStart:
		o.open[e.Phase.Name] = o.rec.open("phase."+e.Phase.Name, o.parent, o.job)
	case obs.EvPhaseEnd:
		if i, ok := o.open[e.Phase.Name]; ok {
			o.phaseMS[e.Phase.Name] += ms(o.rec.close(i))
		}
	case obs.EvFuzzExec:
		o.fuzzExecs++
	case obs.EvCandidate:
		o.candidates++
	}
}
