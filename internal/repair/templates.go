package repair

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/hls"
)

// Template is one parameterized edit family from Table 2 — e.g.
// array_static($a1:arr, $i1:int) or constructor($s1:struct). A template is
// instantiated against a concrete program and diagnostic to produce
// applicable Edits.
type Template struct {
	// ID is the template name as the paper writes it.
	ID string
	// Class is the error class the template belongs to.
	Class hls.ErrorClass
	// Requires lists template IDs that must already have been applied to
	// the same target before this template is applicable — the Figure 7c
	// dependence relation.
	Requires []string
	// Alternatives lists template IDs this template conflicts with: once
	// one of them was applied to a target, this one no longer applies
	// (e.g. flatten vs constructor are two repair branches for a struct).
	Alternatives []string
	// PerfGain marks templates whose application tends to improve
	// performance (five of the six classes per §5.1's takeaway).
	PerfGain bool
	// Instantiate binds the template to concrete targets in u, guided by
	// the diagnostic. Each returned Edit must be independently
	// applicable to a fresh clone of u.
	Instantiate func(u *cast.Unit, d hls.Diagnostic, st *State) []Edit
}

// Edit is one concrete, applicable program edit.
type Edit struct {
	Template string
	Class    hls.ErrorClass
	// Target identifies the entity edited (function, variable, struct
	// tag); dependence bookkeeping is per (template, target).
	Target string
	// Note describes the parameterization, e.g. "size=1024".
	Note string
	// Apply mutates the unit in place. It must return an error (leaving
	// the unit possibly half-edited — callers apply to clones) when the
	// shape it expects is absent. It may write only into declarations
	// its clone owns: the ones named in Scope, or any when Scope is
	// empty and the clone is full. The search builds a candidate when it
	// reaches it, between evaluations of earlier candidates that share
	// declarations with the same parent program.
	Apply func(u *cast.Unit) error
	// Scope, when non-empty, declares that Apply mutates nothing outside
	// the bodies and pragma lists of the named functions — no retyping,
	// no unit-wide branch renumbering, no struct or typedef changes.
	// Scoped edits qualify for structure-sharing candidate construction
	// (cast.CloneUnitScoped): the candidate deep-copies only the named
	// functions and shares every other declaration with its parent by
	// pointer, which is what lets the compiled-code and fingerprint
	// caches carry over. Empty means "unknown": the candidate gets a
	// full deep clone.
	Scope []string
	// OnAccept, when non-nil, updates the search state after this edit is
	// accepted into the current program (e.g. recording chosen sizes so
	// resize can grow them later).
	OnAccept func(st *State)
}

// String renders the edit like the paper: template(target, note).
func (e Edit) String() string {
	if e.Note != "" {
		return fmt.Sprintf("%s(%s, %s)", e.Template, e.Target, e.Note)
	}
	return fmt.Sprintf("%s(%s)", e.Template, e.Target)
}

// Key identifies the (template, target) pair for dependence tracking.
func (e Edit) Key() string { return e.Template + "@" + e.Target }

// State carries per-search bookkeeping that templates consult: which
// (template, target) pairs have been applied on the current program path,
// and tunable parameters being explored (array sizes, factors).
type State struct {
	Applied map[string]bool
	// Sizes remembers the current size choice per resizable entity, so
	// the resize template can grow it geometrically.
	Sizes map[string]int
	// TestCount scales simulated validation cost.
	TestCount int
	// Deprecated: FastClone has no effect; every edit that declares a
	// Scope gets a structure-sharing clone. It stays only because the
	// benchmark's replay (bench/replay.go) still sets it; delete both
	// together.
	FastClone bool
}

// NewState returns empty bookkeeping.
func NewState() *State {
	return &State{Applied: map[string]bool{}, Sizes: map[string]int{}}
}

// MarkApplied records an applied edit.
func (s *State) MarkApplied(e Edit) { s.Applied[e.Template+"@"+e.Target] = true }

// applied reports whether template tid was applied to target.
func (s *State) applied(tid, target string) bool {
	return s.Applied[tid+"@"+target]
}

// DepsSatisfied reports whether every prerequisite of t has been applied
// to the target and no alternative branch has claimed it.
func (s *State) DepsSatisfied(t Template, target string) bool {
	for _, req := range t.Requires {
		if !s.applied(req, target) {
			return false
		}
	}
	for _, alt := range t.Alternatives {
		if s.applied(alt, target) {
			return false
		}
	}
	return true
}

// Registry returns the active template catalog: the built-in Table 2
// templates followed by any registered extensions.
func Registry() []Template { return extendedTemplates() }

// builtinRegistry returns the built-in catalog, keyed in the order of
// Table 2. The dependence edges mirror Figure 7c for the struct/union
// class and §5.3's array_static -> resize example for dynamic data.
func builtinRegistry() []Template {
	return []Template{
		// --- Dynamic Data Structures -----------------------------------
		{
			ID:          "array_static",
			Class:       hls.ClassDynamicData,
			PerfGain:    true,
			Instantiate: instArrayStatic,
		},
		{
			ID:          "insert",
			Class:       hls.ClassDynamicData,
			PerfGain:    true,
			Instantiate: instPoolInsert, // insert($a1:arr,$d1:dyn): static pool for dynamic allocs
		},
		{
			ID:          "pointer",
			Class:       hls.ClassDynamicData,
			Requires:    []string{"insert"},
			PerfGain:    true,
			Instantiate: instPointerRemoval,
		},
		{
			ID:          "stack_trans",
			Class:       hls.ClassDynamicData,
			PerfGain:    true,
			Instantiate: instStackTrans,
		},
		{
			ID:          "resize",
			Class:       hls.ClassDynamicData,
			Requires:    []string{}, // applicable after any sizing edit; see Instantiate
			PerfGain:    false,
			Instantiate: instResize,
		},

		// --- Unsupported Data Types -------------------------------------
		{
			ID:          "type_trans",
			Class:       hls.ClassUnsupportedType,
			PerfGain:    true,
			Instantiate: instTypeTrans,
		},
		{
			ID:          "type_casting",
			Class:       hls.ClassUnsupportedType,
			Requires:    []string{"type_trans"},
			PerfGain:    true,
			Instantiate: instTypeCasting,
		},
		{
			ID:          "pointer_var",
			Class:       hls.ClassUnsupportedType,
			PerfGain:    true,
			Instantiate: instPointerVarRemoval,
		},
		{
			// Table 2 lists pointer($v1:ptr) under Unsupported Data Types
			// too: struct pointers flagged as type errors resolve to the
			// same pool-index rewrite (self-gated on the pool existing).
			ID:          "pointer_pool",
			Class:       hls.ClassUnsupportedType,
			PerfGain:    true,
			Instantiate: instPointerRemoval,
		},

		// --- Dataflow Optimization ---------------------------------------
		{
			ID:          "segment",
			Class:       hls.ClassDataflow,
			PerfGain:    true,
			Instantiate: instSegmentBuffer,
		},
		{
			ID:          "delete_pragma",
			Class:       hls.ClassDataflow,
			PerfGain:    false,
			Instantiate: instDeleteDataflow,
		},
		{
			ID:          "insert_pragma",
			Class:       hls.ClassDataflow,
			PerfGain:    true,
			Instantiate: instInsertDataflow,
		},

		// --- Loop Parallelization ----------------------------------------
		{
			ID:          "index_static",
			Class:       hls.ClassLoopParallel,
			PerfGain:    true,
			Instantiate: instIndexStatic,
		},
		{
			ID:          "explore_all",
			Class:       hls.ClassLoopParallel,
			PerfGain:    true,
			Instantiate: instExploreAll,
		},
		{
			ID:          "explore",
			Class:       hls.ClassLoopParallel,
			PerfGain:    true,
			Instantiate: instExplorePragmas,
		},
		{
			ID:          "delete_loop_pragma",
			Class:       hls.ClassLoopParallel,
			PerfGain:    false,
			Instantiate: instDeleteLoopPragma,
		},

		// --- Struct and Union (Figure 7c) --------------------------------
		{
			ID:           "constructor",
			Class:        hls.ClassStructUnion,
			Alternatives: []string{"flatten"},
			PerfGain:     true,
			Instantiate:  instConstructor,
		},
		{
			ID:           "flatten",
			Class:        hls.ClassStructUnion,
			Alternatives: []string{"constructor"},
			PerfGain:     true,
			Instantiate:  instFlatten,
		},
		{
			ID:          "stream_static",
			Class:       hls.ClassStructUnion,
			Requires:    []string{"constructor"},
			PerfGain:    true,
			Instantiate: instStreamStatic,
		},
		{
			ID:          "inst_update",
			Class:       hls.ClassStructUnion,
			Requires:    []string{"flatten"},
			PerfGain:    true,
			Instantiate: instInstUpdate,
		},
		{
			ID:          "inst_static",
			Class:       hls.ClassStructUnion,
			Requires:    []string{"constructor"},
			PerfGain:    false,
			Instantiate: instInstStatic,
		},

		// --- Top Function -------------------------------------------------
		{
			ID:          "top_rename",
			Class:       hls.ClassTopFunction,
			PerfGain:    false,
			Instantiate: instTopRename,
		},
		{
			ID:          "top_delete_pragma",
			Class:       hls.ClassTopFunction,
			PerfGain:    false,
			Instantiate: instTopDeletePragma,
		},
	}
}

// TemplateByID looks up a registry entry.
func TemplateByID(id string) (Template, bool) {
	for _, t := range Registry() {
		if t.ID == id {
			return t, true
		}
	}
	return Template{}, false
}
