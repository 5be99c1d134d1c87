package core

import (
	"reflect"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// TestCheckReusesRepairVerdict: the checker stage and the repair search
// address check verdicts by the same key, so checking a repaired design
// through a cache the repair filled is a check-stage hit — for the
// default target, a named target of the default toolchain, and a
// toolchain whose dialect translates the diagnostics — and the hit
// reports what an uncached check reports, including the diagnostics
// a search cut short after one iteration leaves behind. P9's repair
// inserts a constructor, which must print and parse back as one.
func TestCheckReusesRepairVerdict(t *testing.T) {
	ids := []string{"P2", "P9"}
	if !testing.Short() {
		ids = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"}
	}
	for _, spec := range []string{"", "vivado_hls:zc706", "vitis:aws_f1"} {
		var targets []hls.Target
		if spec != "" {
			tg, err := hls.ParseTarget(spec)
			if err != nil {
				t.Fatal(err)
			}
			targets = []hls.Target{tg}
		}
		for _, id := range ids {
			s, err := subjects.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, iterations := range []int{0, 1} {
				name := id + "/" + spec
				opts := Options{Kernel: s.Kernel, Targets: targets}
				if iterations > 0 {
					name += "/partial"
					opts.Repair = repair.DefaultOptions()
					opts.Repair.MaxIterations = iterations
				}
				cached := opts
				cached.Cache, err = evalcache.New(evalcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				rr, err := RepairStage(s.Source, cached)
				if err != nil {
					t.Fatal(err)
				}
				final := cast.Print(rr.Unit)

				before := cached.Cache.Stats().Stages[evalcache.StageCheck]
				got, err := Check(final, cached)
				if err != nil {
					t.Fatal(err)
				}
				after := cached.Cache.Stats().Stages[evalcache.StageCheck]
				if after.Hits != before.Hits+1 || after.Misses != before.Misses {
					t.Errorf("%s: check of the repaired design was not a cache hit (hits %d->%d, misses %d->%d)",
						name, before.Hits, after.Hits, before.Misses, after.Misses)
				}
				want, err := Check(final, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: cached check differs from uncached\n  cached:   %+v\n  uncached: %+v", name, got, want)
				}
			}
		}
	}
}
