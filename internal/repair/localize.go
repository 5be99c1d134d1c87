package repair

import (
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/hls"
)

// ClassifyMessage maps an HLS diagnostic message to an error class by
// keyword extraction, exactly as §5.2 describes ("extracting keywords
// such as recursion, dataflow, or struct"). The repair engine classifies
// from the message text rather than trusting any structured channel, so a
// new checker (or a real Vivado log) can be plugged in. Registered
// extension classifiers run first.
func ClassifyMessage(msg string) hls.ErrorClass {
	return classifyExtended(msg)
}

// builtinClassify is the six-class keyword classifier of §5.2.
func builtinClassify(msg string) hls.ErrorClass {
	m := strings.ToLower(msg)
	switch {
	case strings.Contains(m, "recursive") || strings.Contains(m, "recursion"),
		strings.Contains(m, "dynamic memory"),
		strings.Contains(m, "unknown size"):
		return hls.ClassDynamicData
	case strings.Contains(m, "long double"),
		strings.Contains(m, "overloaded"),
		strings.Contains(m, "pointer"):
		return hls.ClassUnsupportedType
	case strings.Contains(m, "unroll"),
		strings.Contains(m, "partition"),
		strings.Contains(m, "pre-synthesis"),
		strings.Contains(m, "trip count"):
		return hls.ClassLoopParallel
	case strings.Contains(m, "struct"),
		strings.Contains(m, "stream"):
		return hls.ClassStructUnion
	case strings.Contains(m, "dataflow"):
		return hls.ClassDataflow
	case strings.Contains(m, "top function"):
		return hls.ClassTopFunction
	}
	return hls.ClassNone
}

// Candidate is a repair candidate: a dependence-ordered edit sequence
// already applied to its own clone of the program.
type Candidate struct {
	Edits []Edit
	Unit  *cast.Unit
}

// Describe renders the candidate's edit chain.
func (c Candidate) Describe() string {
	parts := make([]string, len(c.Edits))
	for i, e := range c.Edits {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ; ")
}

// maxChainDepth bounds dependence-chain expansion (the paper's chains are
// short: ➊➌➎ style, length <= 3).
const maxChainDepth = 3

// cloneFor builds the candidate unit an edit will be applied to: a
// structure-sharing scoped clone when the edit declares its mutation
// scope, the full deep clone otherwise. Sharing unedited declarations
// by pointer is what makes candidate construction O(edit) and lets the
// compiled-code and fingerprint caches reuse work across candidates.
func cloneFor(u *cast.Unit, e Edit) *cast.Unit {
	if len(e.Scope) > 0 {
		return cast.CloneUnitScoped(u, e.Scope)
	}
	return cast.CloneUnit(u)
}

// CandidatesFor generates dependence-ordered candidate chains for one
// diagnostic against the current program: for each entry template of the
// diagnostic's class whose prerequisites are satisfiable, the chain
// {A}, {A,B}, {A,B,D} ... following the Requires edges — the paper's
// enumeration {➊, ➋, ➊➌, ➋➍, ...}.
func CandidatesFor(u *cast.Unit, d hls.Diagnostic, st *State) []Candidate {
	class := ClassifyMessage(d.Message)
	if class == hls.ClassNone {
		class = d.Class
	}
	var out []Candidate
	for _, t := range TemplatesFor(class) {
		if !st.DepsSatisfied(t, d.Subject) && len(t.Requires) > 0 {
			// The prerequisite may be satisfied within a chain started by
			// the entry template; skip as a chain head only.
			continue
		}
		if len(t.Requires) > 0 {
			continue // chain heads have no prerequisites
		}
		out = append(out, expandChains(u, d, st, t, nil, 1)...)
	}
	// Shorter chains first, preserving registry order within a length.
	sort.SliceStable(out, func(i, j int) bool {
		return len(out[i].Edits) < len(out[j].Edits)
	})
	return out
}

// expandChains instantiates t on u, then recursively extends each result
// with templates that depend on t.
func expandChains(u *cast.Unit, d hls.Diagnostic, st *State, t Template, prefix []Edit, depth int) []Candidate {
	var out []Candidate
	for _, e := range t.Instantiate(u, d, st) {
		clone := cloneFor(u, e)
		if err := e.Apply(clone); err != nil {
			continue
		}
		chain := append(append([]Edit{}, prefix...), e)
		out = append(out, Candidate{Edits: chain, Unit: clone})
		if depth >= maxChainDepth {
			continue
		}
		// Extend with dependents of t targeted at the same entity.
		childState := st.childWith(e)
		for _, t2 := range Registry() {
			if !requires(t2, t.ID) {
				continue
			}
			if !childState.DepsSatisfied(t2, e.Target) {
				continue
			}
			out = append(out, expandChains(clone, d, childState, t2, chain, depth+1)...)
		}
	}
	return out
}

func requires(t Template, id string) bool {
	for _, r := range t.Requires {
		if r == id {
			return true
		}
	}
	return false
}

// childWith copies the state with one more applied edit (used during
// chain expansion without committing to the real search state).
func (s *State) childWith(e Edit) *State {
	out := &State{
		Applied:   make(map[string]bool, len(s.Applied)+1),
		Sizes:     make(map[string]int, len(s.Sizes)),
		TestCount: s.TestCount,
	}
	for k, v := range s.Applied {
		out.Applied[k] = v
	}
	for k, v := range s.Sizes {
		out.Sizes[k] = v
	}
	out.Applied[e.Template+"@"+e.Target] = true
	if e.OnAccept != nil {
		e.OnAccept(out)
	}
	return out
}

// RandomCandidates generates single-edit candidates from the entire
// registry over the entire edit space — every template instantiated
// against every plausible subject in the program, not just the subjects
// the diagnostics name. This is the space the WithoutDependence ablation
// wanders through: with no dependence knowledge, each iteration may pick
// any of these, and most of them change nothing the checker cares about.
func RandomCandidates(u *cast.Unit, diags []hls.Diagnostic, st *State) []Candidate {
	all := append(append([]hls.Diagnostic{}, diags...), syntheticDiags(u)...)
	var out []Candidate
	for _, t := range Registry() {
		for _, d := range all {
			for _, e := range t.Instantiate(u, d, st) {
				clone := cloneFor(u, e)
				if err := e.Apply(clone); err != nil {
					continue
				}
				out = append(out, Candidate{Edits: []Edit{e}, Unit: clone})
			}
		}
	}
	return dedupeCandidates(out)
}

// syntheticDiags enumerates every (class, subject) pair a template could
// target in u: each function (recursion targets), each variable and array
// (sizing, pointer, stream targets), each struct tag.
func syntheticDiags(u *cast.Unit) []hls.Diagnostic {
	var out []hls.Diagnostic
	add := func(class hls.ErrorClass, subject string) {
		out = append(out, hls.Diagnostic{Class: class, Subject: subject,
			Message: "exploration target " + subject})
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.FuncDecl:
			add(hls.ClassDynamicData, x.Name)
			cast.Inspect(x, func(n cast.Node) bool {
				if ds, ok := n.(*cast.DeclStmt); ok {
					add(hls.ClassDynamicData, ds.Name)
					add(hls.ClassUnsupportedType, ds.Name)
					add(hls.ClassStructUnion, ds.Name)
					add(hls.ClassDataflow, ds.Name)
				}
				return true
			})
			for _, p := range x.Params {
				add(hls.ClassDataflow, p.Name)
				add(hls.ClassUnsupportedType, p.Name)
			}
		case *cast.VarDecl:
			add(hls.ClassDynamicData, x.Name)
			add(hls.ClassUnsupportedType, x.Name)
		case *cast.StructDecl:
			add(hls.ClassStructUnion, x.Type.Tag)
		}
	}
	add(hls.ClassDynamicData, "malloc")
	add(hls.ClassUnsupportedType, "long double")
	return out
}

func dedupeCandidates(cands []Candidate) []Candidate {
	seen := map[string]bool{}
	var out []Candidate
	for _, c := range cands {
		k := c.Describe()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}

// PerfCandidates generates performance-exploration candidates (PerfGain
// templates) for an already error-free program: pragma exploration,
// dataflow insertion.
func PerfCandidates(u *cast.Unit, st *State) []Candidate {
	synthetic := hls.Diagnostic{Message: "performance exploration", Class: hls.ClassLoopParallel}
	var out []Candidate
	for _, t := range Registry() {
		if !t.PerfGain {
			continue
		}
		switch t.ID {
		case "explore_all", "explore", "insert_pragma":
			for _, e := range t.Instantiate(u, synthetic, st) {
				clone := cloneFor(u, e)
				if err := e.Apply(clone); err != nil {
					continue
				}
				out = append(out, Candidate{Edits: []Edit{e}, Unit: clone})
			}
		}
	}
	return out
}
