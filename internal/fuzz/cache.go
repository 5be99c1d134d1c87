// Campaign memoization. A fuzzing campaign is a pure function of the
// program, the kernel, and the campaign-shaping options (seed, budget,
// plateau, host seeding, mutation typing, step bound) — observers never
// change what it computes — so a finished campaign can be stored whole
// in the evaluation cache, keyed by the program's fingerprint
// (cast.FingerprintUnit) and those options, and replayed on the next
// run over the same subject.
//
// Two representation problems make this more than a json.Marshal:
//
//   - Arg.Elem is a ctypes.Type interface value, which serializes but
//     cannot deserialize. The cached form drops it and the decoder
//     restores it from a freshly recomputed Spec: every argument's
//     element type equals its parameter's by construction (seeds and
//     mutations all clone from Spec.Params).
//
//   - Trace parity: a traced cold run emits one event per execution,
//     and warm runs must produce byte-identical traces. So a traced
//     run records its emitted events into the entry, and a replay
//     re-emits them verbatim. An entry stored by an untraced
//     run carries no events and cannot serve a traced run — that
//     lookup counts as a miss and the recomputed campaign overwrites
//     the entry.

package fuzz

import (
	"fmt"
	"math"
	"strings"

	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/obs"
)

// CorpusFingerprint canonically hashes a test suite — the corpus
// component of difftest cache keys. Floats hash by bit pattern, so
// -0.0, denormals, and every other value that matters to kernel
// behaviour is distinguished exactly.
func CorpusFingerprint(tests []TestCase) string {
	var sb strings.Builder
	for _, tc := range tests {
		sb.WriteString("case")
		for _, a := range tc.Args {
			elem := ""
			if a.Elem != nil {
				elem = a.Elem.C("")
			}
			fmt.Fprintf(&sb, "|%t,%t,%d,%t,%s:", a.IsFloat, a.Scalar, a.Width, a.Unsigned, elem)
			for _, v := range a.Ints {
				fmt.Fprintf(&sb, "%d,", v)
			}
			sb.WriteByte(';')
			for _, v := range a.Floats {
				fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
			}
		}
		sb.WriteByte('\n')
	}
	return evalcache.Fingerprint("corpus", sb.String())
}

// cachedArg is Arg without the non-deserializable element type.
type cachedArg struct {
	IsFloat  bool      `json:"f,omitempty"`
	Scalar   bool      `json:"s,omitempty"`
	Ints     []int64   `json:"i,omitempty"`
	Floats   []float64 `json:"d,omitempty"`
	Width    int       `json:"w,omitempty"`
	Unsigned bool      `json:"u,omitempty"`
}

// cachedCase is one serialized test vector.
type cachedCase struct {
	Args []cachedArg `json:"args"`
}

// cachedCampaign is the disk form of a finished campaign. Spec is not
// stored: it is deterministic in (program, kernel) and recomputed on
// restore, which is also what supplies the element types.
type cachedCampaign struct {
	Tests           []cachedCase `json:"tests"`
	Coverage        float64      `json:"coverage"`
	CoveredOutcomes int          `json:"covered"`
	TotalOutcomes   int          `json:"total"`
	Execs           int          `json:"execs"`
	VirtualSeconds  float64      `json:"virtual_s"`
	SeededFromHost  bool         `json:"seeded,omitempty"`
	Plateaued       bool         `json:"plateaued,omitempty"`
	// HasEvents distinguishes "stored untraced" from "traced campaign
	// that emitted zero events" (impossible in practice, but the flag
	// keeps the contract explicit).
	HasEvents bool        `json:"has_events,omitempty"`
	Events    []obs.Event `json:"events,omitempty"`
}

// encodeCampaign converts a finished campaign (and the events a traced
// run emitted, when rec is non-nil) to its cached form.
func encodeCampaign(camp Campaign, rec *eventRecorder) cachedCampaign {
	cc := cachedCampaign{
		Tests:           make([]cachedCase, len(camp.Tests)),
		Coverage:        camp.Coverage,
		CoveredOutcomes: camp.CoveredOutcomes,
		TotalOutcomes:   camp.TotalOutcomes,
		Execs:           camp.Execs,
		VirtualSeconds:  camp.VirtualSeconds,
		SeededFromHost:  camp.SeededFromHost,
		Plateaued:       camp.Plateaued,
	}
	for i, tc := range camp.Tests {
		args := make([]cachedArg, len(tc.Args))
		for j, a := range tc.Args {
			args[j] = cachedArg{
				IsFloat: a.IsFloat, Scalar: a.Scalar,
				Ints: a.Ints, Floats: a.Floats,
				Width: a.Width, Unsigned: a.Unsigned,
			}
		}
		cc.Tests[i] = cachedCase{Args: args}
	}
	if rec != nil {
		cc.HasEvents = true
		cc.Events = rec.events
	}
	return cc
}

// decode rebuilds the campaign against a freshly computed spec. A
// shape mismatch (an entry from a different program colliding, or a
// mangled store) reports !ok and the caller recomputes.
func (cc cachedCampaign) decode(sp Spec) (Campaign, bool) {
	camp := Campaign{
		Spec:            sp,
		Coverage:        cc.Coverage,
		CoveredOutcomes: cc.CoveredOutcomes,
		TotalOutcomes:   cc.TotalOutcomes,
		Execs:           cc.Execs,
		VirtualSeconds:  cc.VirtualSeconds,
		SeededFromHost:  cc.SeededFromHost,
		Plateaued:       cc.Plateaued,
	}
	for _, ct := range cc.Tests {
		if len(ct.Args) != len(sp.Params) {
			return Campaign{}, false
		}
		tc := TestCase{Args: make([]Arg, len(ct.Args))}
		for i, ca := range ct.Args {
			tc.Args[i] = Arg{
				IsFloat: ca.IsFloat, Scalar: ca.Scalar,
				Ints: ca.Ints, Floats: ca.Floats,
				Width: ca.Width, Unsigned: ca.Unsigned,
				Elem: sp.Params[i].Elem,
			}
		}
		camp.Tests = append(camp.Tests, tc)
	}
	return camp, true
}

// eventRecorder tees emitted events into a buffer for the cache entry.
// A campaign emits on its own goroutine only, so no lock.
type eventRecorder struct {
	inner  obs.Observer
	events []obs.Event
}

func (r *eventRecorder) Emit(e obs.Event) {
	r.events = append(r.events, e)
	r.inner.Emit(e)
}
