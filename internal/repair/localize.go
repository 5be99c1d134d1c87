package repair

import (
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
// applied to its own clone of the program. The search builds a
// candidate (clones the program and applies the edits) only when it
// reaches it in enumeration order; see enumerator.
type Candidate struct {
	Edits []Edit
	Unit  *cast.Unit
}

// Describe renders the candidate's edit chain.
func (c Candidate) Describe() string { return describe(c.Edits) }

func describe(edits []Edit) string {
	parts := make([]string, len(edits))
	for i, e := range edits {
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

// pending is an enumerated candidate that may not be built yet: its
// edit chain and the unit the chain's last edit applies to. The chain
// fields let the dependence enumeration extend it by one more edit.
type pending struct {
	edits []Edit
	base  *cast.Unit
	unit  *cast.Unit // the built candidate; nil until built or when Apply failed
	built bool
	tmpl  Template       // template of the last edit
	st    *State         // state the last edit was instantiated under
	d     hls.Diagnostic // diagnostic the chain repairs
}

// build clones base and applies the last edit, once; it reports
// whether the edit applied.
func (p *pending) build() bool {
	if !p.built {
		p.built = true
		e := p.edits[len(p.edits)-1]
		u := cloneFor(p.base, e)
		if e.Apply(u) == nil {
			p.unit = u
		}
	}
	return p.unit != nil
}

// enumerator yields candidates in enumeration order and builds each one
// only when next reaches it, so a step that accepts an early candidate
// never clones or edits the ones behind it. A candidate whose edit does
// not apply is dropped. seen (nil: none) drops a candidate whose edit
// chain an earlier built one already had, and skip (nil: none) one whose
// chain is in the set, both before building; classes (nil: all) then
// drops a built candidate with an edit of another class.
type enumerator struct {
	src     interface{ pull() *pending } // nil when exhausted
	seen    map[string]bool
	skip    map[string]bool
	classes map[hls.ErrorClass]bool
}

func (en *enumerator) next() (Candidate, bool) {
	for {
		p := en.src.pull()
		if p == nil {
			return Candidate{}, false
		}
		var key string
		if en.seen != nil || en.skip != nil {
			key = describe(p.edits)
			if en.seen[key] || en.skip[key] {
				continue
			}
		}
		if !p.build() {
			continue
		}
		if en.seen != nil {
			en.seen[key] = true
		}
		if en.allows(p.edits) {
			return Candidate{Edits: p.edits, Unit: p.unit}, true
		}
	}
}

func (en *enumerator) allows(edits []Edit) bool {
	if en.classes == nil {
		return true
	}
	for _, e := range edits {
		if !en.classes[e.Class] {
			return false
		}
	}
	return true
}

// drain builds every candidate, in order.
func (en *enumerator) drain() []Candidate {
	var out []Candidate
	for c, ok := en.next(); ok; c, ok = en.next() {
		out = append(out, c)
	}
	return out
}

// dependenceChains enumerates the dependence-guided candidates of one
// repair step: each diagnostic's chains in turn, without duplicates,
// restricted to classes (nil: all).
func dependenceChains(u *cast.Unit, diags []hls.Diagnostic, st *State, classes map[hls.ErrorClass]bool) *enumerator {
	return &enumerator{src: newChainSource(u, diags, st), seen: map[string]bool{}, classes: classes}
}

// CandidatesFor generates dependence-ordered candidate chains for one
// diagnostic against the current program: for each entry template of the
// diagnostic's class, the chain {A}, {A,B}, {A,B,D} ... following the
// Requires edges — the paper's enumeration {➊, ➋, ➊➌, ➋➍, ...}, shorter
// chains first and registry order within a length.
func CandidatesFor(u *cast.Unit, d hls.Diagnostic, st *State) []Candidate {
	return (&enumerator{src: newChainSource(u, []hls.Diagnostic{d}, st)}).drain()
}

// chainSource enumerates dependence chains diagnostic by diagnostic
// and, within a diagnostic, level by level: every chain head, then
// every two-edit chain in the order of its head, and so on. A level is
// instantiated only when the one before it is used up, against its
// parents' units, so a parent is built even when it is not tried
// itself (a duplicate, or of a filtered class) as long as a template
// depends on it.
type chainSource struct {
	u        *cast.Unit
	diags    []hls.Diagnostic // not yet started
	st       *State
	registry []Template
	level    []*pending // the current level, from pos on
	pos      int
	depth    int
}

func newChainSource(u *cast.Unit, diags []hls.Diagnostic, st *State) *chainSource {
	return &chainSource{u: u, diags: diags, st: st, registry: Registry()}
}

func (c *chainSource) pull() *pending {
	for {
		if c.pos < len(c.level) {
			c.pos++
			return c.level[c.pos-1]
		}
		if len(c.level) > 0 && c.depth < maxChainDepth {
			var next []*pending
			for _, p := range c.level {
				next = append(next, c.extend(p)...)
			}
			c.level, c.pos, c.depth = next, 0, c.depth+1
			continue
		}
		if len(c.diags) == 0 {
			return nil
		}
		c.level, c.pos, c.depth = c.heads(c.diags[0]), 0, 1
		c.diags = c.diags[1:]
	}
}

// heads instantiates the chain heads for d: the templates of its class
// without prerequisites.
func (c *chainSource) heads(d hls.Diagnostic) []*pending {
	class := ClassifyMessage(d.Message)
	if class == hls.ClassNone {
		class = d.Class
	}
	var out []*pending
	for _, t := range c.registry {
		if t.Class != class || len(t.Requires) > 0 {
			continue
		}
		for _, e := range t.Instantiate(c.u, d, c.st) {
			out = append(out, &pending{edits: []Edit{e}, base: c.u, tmpl: t, st: c.st, d: d})
		}
	}
	return out
}

// extend instantiates, on p's unit, the templates that depend on p's
// last template and target the same entity.
func (c *chainSource) extend(p *pending) []*pending {
	e := p.edits[len(p.edits)-1]
	var childState *State
	var out []*pending
	for _, t := range c.registry {
		if !requires(t, p.tmpl.ID) {
			continue
		}
		if !p.build() {
			return nil
		}
		if childState == nil {
			childState = p.st.childWith(e)
		}
		if !childState.DepsSatisfied(t, e.Target) {
			continue
		}
		for _, e2 := range t.Instantiate(p.unit, p.d, childState) {
			chain := append(append([]Edit{}, p.edits...), e2)
			out = append(out, &pending{edits: chain, base: p.unit, tmpl: t, st: childState, d: p.d})
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

// editSource enumerates single-edit candidates: every template in order,
// instantiated against every diagnostic in order, each template and
// diagnostic pair only when the one before it is used up.
type editSource struct {
	u      *cast.Unit
	st     *State
	tmpls  []Template
	diags  []hls.Diagnostic
	ti, di int
	edits  []Edit // instantiated, not yet pulled
}

func (f *editSource) pull() *pending {
	for len(f.edits) == 0 {
		if f.ti == len(f.tmpls) || len(f.diags) == 0 {
			return nil
		}
		f.edits = f.tmpls[f.ti].Instantiate(f.u, f.diags[f.di], f.st)
		if f.di++; f.di == len(f.diags) {
			f.ti, f.di = f.ti+1, 0
		}
	}
	e := f.edits[0]
	f.edits = f.edits[1:]
	return &pending{edits: []Edit{e}, base: f.u}
}

// anyEdit enumerates RandomCandidates' space without duplicates,
// restricted to classes (nil: all).
func anyEdit(u *cast.Unit, diags []hls.Diagnostic, st *State, classes map[hls.ErrorClass]bool) *enumerator {
	all := append(append([]hls.Diagnostic{}, diags...), syntheticDiags(u)...)
	src := &editSource{u: u, st: st, tmpls: Registry(), diags: all}
	return &enumerator{src: src, seen: map[string]bool{}, classes: classes}
}

// RandomCandidates generates single-edit candidates from the entire
// registry over the entire edit space — every template instantiated
// against every plausible subject in the program, not just the subjects
// the diagnostics name. This is the space the WithoutDependence ablation
// wanders through: with no dependence knowledge, each iteration may pick
// any of these, and most of them change nothing the checker cares about.
func RandomCandidates(u *cast.Unit, diags []hls.Diagnostic, st *State) []Candidate {
	return anyEdit(u, diags, st, nil).drain()
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

// perfSource enumerates the performance-exploration edits (PerfGain
// templates) for an already error-free program: pragma exploration,
// dataflow insertion.
func perfSource(u *cast.Unit, st *State) *editSource {
	var tmpls []Template
	for _, t := range Registry() {
		switch t.ID {
		case "explore_all", "explore", "insert_pragma":
			if t.PerfGain {
				tmpls = append(tmpls, t)
			}
		}
	}
	synthetic := hls.Diagnostic{Message: "performance exploration", Class: hls.ClassLoopParallel}
	return &editSource{u: u, st: st, tmpls: tmpls, diags: []hls.Diagnostic{synthetic}}
}

// PerfCandidates generates the performance-exploration candidates for an
// already error-free program, in enumeration order.
func PerfCandidates(u *cast.Unit, st *State) []Candidate {
	return (&enumerator{src: perfSource(u, st)}).drain()
}
