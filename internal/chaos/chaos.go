package chaos

import (
	"fmt"
	"hash/fnv"

	"github.com/hetero/heterogen/internal/guard"
)

// Options configures an injector.
type Options struct {
	// Seed drives the schedule: same seed, same faults.
	Seed int64
	// Rate is the per-invocation fault probability in [0, 1].
	Rate float64
	// Stages restricts injection to the listed hook points (nil = all).
	Stages []guard.Stage
	// Kinds restricts the planted failure classes (nil = all).
	Kinds []guard.Class
	// TransientFailures is how many attempts an injected transient fault
	// fails before succeeding (default 1, so a guard with at least one
	// retry survives it).
	TransientFailures int
}

// Injector implements guard.Injector over a seeded hash schedule.
type Injector struct {
	opts   Options
	stages map[guard.Stage]bool // nil means every stage
	kinds  []guard.Class
}

// New builds an injector.
func New(opts Options) *Injector {
	inj := &Injector{opts: opts, kinds: opts.Kinds}
	if len(opts.Stages) > 0 {
		inj.stages = make(map[guard.Stage]bool, len(opts.Stages))
		for _, s := range opts.Stages {
			inj.stages[s] = true
		}
	}
	if len(inj.kinds) == 0 {
		inj.kinds = guard.Classes()
	}
	return inj
}

// Always injects the given class at the given stage on every invocation
// — the chaos matrix's (stage × class) cell.
func Always(stage guard.Stage, class guard.Class) *Injector {
	return New(Options{Rate: 1, Stages: []guard.Stage{stage}, Kinds: []guard.Class{class}})
}

// Fault implements guard.Injector.
func (i *Injector) Fault(stage guard.Stage, key string, attempt int) guard.Fault {
	if i == nil || i.opts.Rate <= 0 {
		return guard.Fault{}
	}
	if i.stages != nil && !i.stages[stage] {
		return guard.Fault{}
	}
	if i.opts.Rate < 1 {
		// Top 53 bits of the hash → uniform float in [0, 1).
		if float64(i.hash("fire", stage, key)>>11)/float64(1<<53) >= i.opts.Rate {
			return guard.Fault{}
		}
	}
	class := i.kinds[int(i.hash("kind", stage, key)%uint64(len(i.kinds)))]
	if class == guard.ClassTransient {
		n := i.opts.TransientFailures
		if n <= 0 {
			n = 1
		}
		if attempt > n {
			return guard.Fault{} // the "environment" recovered; the retry succeeds
		}
	}
	return guard.Fault{Class: class,
		Detail: fmt.Sprintf("chaos: injected %s at %s (seed %d)", class, stage, i.opts.Seed)}
}

// hash folds the schedule inputs into 64 bits. The purpose tag keeps
// the fire decision and the class pick independent.
func (i *Injector) hash(purpose string, stage guard.Stage, key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for n := 0; n < 8; n++ {
		b[n] = byte(uint64(i.opts.Seed) >> (8 * n))
	}
	h.Write(b[:])
	h.Write([]byte(purpose))
	h.Write([]byte{0})
	h.Write([]byte(stage))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}
