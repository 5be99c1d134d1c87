package repair

import (
	"fmt"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/evalcache"
)

// TestSearchCacheParity is the repair-level half of the cache contract:
// running the same search twice against one shared cache must return a
// bit-identical Result (edit log, printed program, the whole Stats
// struct including the virtual clock) and a byte-identical trace, for
// both the sequential and the speculative search — and the second run
// must be served from the cache.
func TestSearchCacheParity(t *testing.T) {
	for _, id := range []string{"P2", "P6"} {
		orig, initial, kernel, tests := subjectInputs(t, id)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				var opts searchOpts
				opts.Workers = workers
				base, baseTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)

				cache, err := evalcache.New(evalcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts.env.Cache = cache
				cold, coldTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
				before := cache.Stats()
				warm, warmTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)

				assertIdentical(t, "cold", base, cold)
				assertIdentical(t, "warm", base, warm)
				assertTracesIdentical(t, "cold", baseTrace, coldTrace)
				assertTracesIdentical(t, "warm", baseTrace, warmTrace)
				if d := cache.Stats().Sub(before); d.Hits() == 0 {
					t.Errorf("second search never hit the shared cache: %s", d)
				}
			})
		}
	}
}
