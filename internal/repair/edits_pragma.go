package repair

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
)

// ---------------------------------------------------------------------------
// Dataflow Optimization

// segment($a1:arr): fix a double-consumed buffer in a dataflow region by
// duplicating it — the post-595161 repair of segmenting input data so each
// process owns its buffer.
func instSegmentBuffer(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	name := d.Subject
	if name == "" {
		return nil
	}
	return []Edit{{
		Template: "segment",
		Class:    hls.ClassDataflow,
		Target:   name,
		Note:     "duplicate buffer per consumer",
		Apply:    func(u *cast.Unit) error { return applySegmentBuffer(u, name) },
	}}
}

func applySegmentBuffer(u *cast.Unit, name string) error {
	for _, fn := range u.Funcs() {
		if fn.Body == nil || !fn.HasDataflow() {
			continue
		}
		// Find consumer calls using the buffer.
		var uses []*cast.Call
		for _, s := range fn.Body.Stmts {
			es, ok := s.(*cast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*cast.Call)
			if !ok {
				continue
			}
			for _, a := range call.Args {
				if id, ok := a.(*cast.Ident); ok && id.Name == name {
					uses = append(uses, call)
					break
				}
			}
		}
		if len(uses) < 2 {
			continue
		}
		size, elem, ok := bufferShape(u, fn, name)
		if !ok {
			return fmt.Errorf("segment: cannot determine shape of %q", name)
		}
		// For each extra consumer k >= 1: declare name_segK and a copy
		// loop, then retarget that consumer.
		var newStmts []cast.Stmt
		for k := 1; k < len(uses); k++ {
			dup := fmt.Sprintf("%s_seg%d", name, k)
			newStmts = append(newStmts, &cast.DeclStmt{
				Name: dup, Type: ctypes.Array{Elem: elem, Len: size},
			})
			iv := &cast.Ident{Name: "_i_" + dup}
			newStmts = append(newStmts, &cast.For{
				Init: &cast.DeclStmt{Name: iv.Name, Type: ctypes.IntT,
					Init: &cast.IntLit{Value: 0, Text: "0"}},
				Cond: &cast.Binary{Op: ctoken.LSS, L: iv,
					R: &cast.IntLit{Value: int64(size), Text: fmt.Sprintf("%d", size)}},
				Post: &cast.Postfix{Op: ctoken.INC, X: iv},
				Body: &cast.Block{Stmts: []cast.Stmt{
					&cast.ExprStmt{X: &cast.Assign{Op: ctoken.ASSIGN,
						L: &cast.Index{X: &cast.Ident{Name: dup}, Idx: iv},
						R: &cast.Index{X: &cast.Ident{Name: name}, Idx: iv},
					}},
				}},
				BranchID: -1,
			})
			for ai, a := range uses[k].Args {
				if id, ok := a.(*cast.Ident); ok && id.Name == name {
					uses[k].Args[ai] = &cast.Ident{Name: dup}
				}
			}
		}
		// Insert the copies at the head of the body (before the processes).
		fn.Body.Stmts = append(newStmts, fn.Body.Stmts...)
		// NumberBranches renumbers every branch site in the unit, so this
		// edit declares no Scope and always runs on a full clone: every
		// declaration it renumbers belongs to this candidate alone, never to
		// a parent program that other candidates share and are evaluated on.
		cast.NumberBranches(u)
		return nil
	}
	return fmt.Errorf("segment: no dataflow region double-consumes %q", name)
}

// bufferShape resolves the element type and size of an array visible in fn.
func bufferShape(u *cast.Unit, fn *cast.FuncDecl, name string) (int, ctypes.Type, bool) {
	var found ctypes.Array
	ok := false
	consider := func(t ctypes.Type) {
		if a, isArr := ctypes.Resolve(t).(ctypes.Array); isArr && a.Len > 0 {
			found, ok = a, true
		}
	}
	for _, p := range fn.Params {
		if p.Name == name {
			consider(p.Type)
		}
	}
	cast.Inspect(fn, func(n cast.Node) bool {
		if d, isDecl := n.(*cast.DeclStmt); isDecl && d.Name == name {
			consider(d.Type)
		}
		return true
	})
	if v := u.Var(name); v != nil {
		consider(v.Type)
	}
	if !ok {
		return 0, nil, false
	}
	return found.Len, found.Elem, true
}

// delete_pragma: drop the dataflow pragma entirely (fixes the error at the
// cost of the optimization — a valid but lower-fitness repair branch).
func instDeleteDataflow(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	var out []Edit
	for _, fn := range u.Funcs() {
		if !fn.HasDataflow() {
			continue
		}
		name := fn.Name
		out = append(out, Edit{
			Template: "delete_pragma",
			Class:    hls.ClassDataflow,
			Target:   name,
			Note:     "remove dataflow",
			Scope:    []string{name},
			Apply: func(u *cast.Unit) error {
				fn := u.Func(name)
				if fn == nil {
					return fmt.Errorf("delete_pragma: %q missing", name)
				}
				kept := fn.Pragmas[:0]
				removed := false
				for _, p := range fn.Pragmas {
					if cast.ParsePragma(p.Text).Kind == cast.PragmaDataflow {
						removed = true
						continue
					}
					kept = append(kept, p)
				}
				fn.Pragmas = kept
				if !removed {
					return fmt.Errorf("delete_pragma: %q has no dataflow pragma", name)
				}
				return nil
			},
		})
	}
	return out
}

// insert_pragma: add a dataflow pragma to the top function when its body
// is a chain of process calls (a performance edit).
func instInsertDataflow(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	var out []Edit
	for _, fn := range u.Funcs() {
		if fn.Body == nil || fn.HasDataflow() {
			continue
		}
		calls := 0
		for _, s := range fn.Body.Stmts {
			if es, ok := s.(*cast.ExprStmt); ok {
				if _, ok := es.X.(*cast.Call); ok {
					calls++
				}
			}
		}
		if calls < 2 {
			continue
		}
		name := fn.Name
		out = append(out, Edit{
			Template: "insert_pragma",
			Class:    hls.ClassDataflow,
			Target:   name,
			Note:     "insert dataflow",
			Scope:    []string{name},
			Apply: func(u *cast.Unit) error {
				fn := u.Func(name)
				if fn == nil {
					return fmt.Errorf("insert_pragma: %q missing", name)
				}
				if fn.HasDataflow() {
					return fmt.Errorf("insert_pragma: %q already has dataflow", name)
				}
				fn.Pragmas = append(fn.Pragmas, &cast.Pragma{Text: "HLS dataflow"})
				return nil
			},
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Loop Parallelization

// loopSite pairs a loop with its enclosing function for editing. Loops
// are indexed by walk ordinal across both for and while loops.
type loopSite struct {
	fn      string
	idx     int // loop ordinal within the function (walk order)
	trip    int // -1 for data-dependent loops
	isWhile bool
	arrs    []string // arrays indexed in the loop body
}

func loopSites(u *cast.Unit) []loopSite {
	var sites []loopSite
	eachFunction(u, func(fn *cast.FuncDecl) {
		ord := 0
		cast.Inspect(fn.Body, func(n cast.Node) bool {
			switch l := n.(type) {
			case *cast.For:
				site := loopSite{fn: fn.Name, idx: ord, trip: l.TripCount()}
				site.arrs = arraysIndexed(l.Body)
				sites = append(sites, site)
				ord++
			case *cast.While:
				site := loopSite{fn: fn.Name, idx: ord, trip: -1, isWhile: true}
				site.arrs = arraysIndexed(l.Body)
				sites = append(sites, site)
				ord++
			}
			return true
		})
	})
	return sites
}

// nthLoop returns the n-th loop of a function in walk order: the For
// pointer or the While pointer (exactly one is non-nil).
func nthLoop(u *cast.Unit, fnName string, idx int) (*cast.For, *cast.While) {
	fn := u.Func(fnName)
	if fn == nil || fn.Body == nil {
		return nil, nil
	}
	ord := 0
	var forFound *cast.For
	var whileFound *cast.While
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		switch l := n.(type) {
		case *cast.For:
			if ord == idx {
				forFound = l
			}
			ord++
		case *cast.While:
			if ord == idx {
				whileFound = l
			}
			ord++
		}
		return true
	})
	return forFound, whileFound
}

// nthFor returns the n-th loop when it is a for loop.
func nthFor(u *cast.Unit, fnName string, idx int) *cast.For {
	f, _ := nthLoop(u, fnName, idx)
	return f
}

func arraysIndexed(body cast.Stmt) []string {
	seen := map[string]bool{}
	var arrs []string
	cast.Inspect(body, func(n cast.Node) bool {
		if ix, ok := n.(*cast.Index); ok {
			if id, ok := ix.X.(*cast.Ident); ok && !seen[id.Name] {
				seen[id.Name] = true
				arrs = append(arrs, id.Name)
			}
		}
		return true
	})
	sort.Strings(arrs)
	return arrs
}

// explore($p1:pragma, $l1:loop): the pragma-exploration template. For a
// diagnosed loop problem it proposes factor adjustments; as a performance
// edit it proposes pipeline/unroll/array_partition combinations on counted
// loops.
func instExplorePragmas(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	var out []Edit
	for _, site := range loopSites(u) {
		site := site
		if site.trip > 1 {
			// Counted loop: pipeline + unroll + partition. Factors are
			// speculative {8,4,2} plus exact divisors — non-dividing
			// factors are what the style checker exists to reject early.
			for _, f := range exploreFactors(site.trip) {
				f := f
				key := fmt.Sprintf("explore:%s#%d:f%d", site.fn, site.idx, f)
				if st.Applied[key] {
					continue
				}
				out = append(out, Edit{
					Template: "explore",
					Class:    hls.ClassLoopParallel,
					Target:   fmt.Sprintf("%s#%d", site.fn, site.idx),
					Note:     fmt.Sprintf("pipeline+unroll factor=%d, partition arrays", f),
					Scope:    []string{site.fn},
					Apply:    func(u *cast.Unit) error { return applyExplore(u, site, f) },
					OnAccept: func(s *State) { s.Applied[key] = true },
				})
			}
			continue
		}
		// Data-dependent loop (including whiles): pipeline only.
		key := fmt.Sprintf("explore:%s#%d:pipe", site.fn, site.idx)
		if st.Applied[key] {
			continue
		}
		out = append(out, Edit{
			Template: "explore",
			Class:    hls.ClassLoopParallel,
			Target:   fmt.Sprintf("%s#%d", site.fn, site.idx),
			Note:     "pipeline II=1",
			Scope:    []string{site.fn},
			Apply:    func(u *cast.Unit) error { return applyExplore(u, site, 0) },
			OnAccept: func(s *State) { s.Applied[key] = true },
		})
	}
	return out
}

// exploreFactors returns the factors to try for a counted loop: the
// speculative default 8 (which the style checker rejects cheaply when an
// indexed array cannot be partitioned that way) plus the largest exact
// divisor of the trip count up to 8. Keeping the list short keeps the
// per-loop compilation bill bounded.
func exploreFactors(trip int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(f int) {
		if f >= 2 && f <= trip && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	add(8)
	for f := 8; f >= 2; f-- {
		if trip%f == 0 {
			add(f)
			break
		}
	}
	return out
}

func applyExplore(u *cast.Unit, site loopSite, factor int) error {
	forLoop, whileLoop := nthLoop(u, site.fn, site.idx)
	fn := u.Func(site.fn)
	if fn == nil {
		return fmt.Errorf("explore: function %q missing", site.fn)
	}
	if whileLoop != nil {
		whileLoop.Pragmas = []*cast.Pragma{{Text: "HLS pipeline II=1"}}
		return nil
	}
	if forLoop == nil {
		return fmt.Errorf("explore: loop %s#%d missing", site.fn, site.idx)
	}
	if factor <= 1 {
		forLoop.Pragmas = []*cast.Pragma{{Text: "HLS pipeline II=1"}}
		return nil
	}
	// Replace loop pragmas with the explored configuration.
	forLoop.Pragmas = []*cast.Pragma{
		{Text: "HLS pipeline II=1"},
		{Text: fmt.Sprintf("HLS unroll factor=%d", factor)},
	}
	// Partition every array the loop indexes. Factors that do not divide
	// an array are rejected cheaply by the style checker.
	for _, arr := range site.arrs {
		if _, _, ok := bufferShape(u, fn, arr); !ok {
			continue
		}
		text := fmt.Sprintf("HLS array_partition variable=%s factor=%d", arr, factor)
		if !hasPragmaText(fn, text) {
			fn.Pragmas = append(fn.Pragmas, &cast.Pragma{Text: text})
		}
	}
	return nil
}

// funcNames lists every function declaration's name — the widest valid
// Scope for body/pragma-only edits that sweep the whole program.
func funcNames(u *cast.Unit) []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range u.Decls {
		if fn, ok := d.(*cast.FuncDecl); ok && !seen[fn.Name] {
			seen[fn.Name] = true
			out = append(out, fn.Name)
		}
	}
	return out
}

func hasPragmaText(fn *cast.FuncDecl, text string) bool {
	for _, p := range fn.Pragmas {
		if p.Text == text {
			return true
		}
	}
	return false
}

// instExploreAll emits one candidate that pragmatizes every loop of the
// program at once (the "pragma sweep" an HLS engineer performs). A
// dataflow region's latency is the maximum of its overlapped processes,
// so speeding one process at a time shows no end-to-end gain — the sweep
// lands the improvements jointly. Factors are chosen style-safely: the
// largest divisor of the trip count that also divides every indexed
// array, falling back to pipeline-only.
func instExploreAll(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	sites := loopSites(u)
	if len(sites) == 0 {
		return nil
	}
	if st.Applied["explore_all@program"] {
		return nil
	}
	return []Edit{{
		Template: "explore_all",
		Class:    hls.ClassLoopParallel,
		Target:   "program",
		Note:     "pragma sweep over all loops",
		Scope:    funcNames(u),
		Apply: func(u *cast.Unit) error {
			applied := 0
			for _, site := range loopSites(u) {
				f := safeFactor(u, site)
				if err := applyExplore(u, site, f); err == nil {
					applied++
				}
			}
			if applied == 0 {
				return fmt.Errorf("explore_all: no loops to pragmatize")
			}
			return nil
		},
	}}
}

// safeFactor picks the largest unroll factor (<= 8) that divides the trip
// count and every partitionable array the loop indexes; 0 means
// pipeline-only.
func safeFactor(u *cast.Unit, site loopSite) int {
	if site.isWhile || site.trip <= 1 {
		return 0
	}
	fn := u.Func(site.fn)
	if fn == nil {
		return 0
	}
	for f := 8; f >= 2; f-- {
		if site.trip%f != 0 {
			continue
		}
		ok := true
		for _, arr := range site.arrs {
			if size, _, known := bufferShape(u, fn, arr); known && size%f != 0 {
				ok = false
				break
			}
		}
		if ok {
			return f
		}
	}
	return 0
}

// index_static($l1:loop): give a data-dependent loop an explicit static
// bound: "for (i = 0; i < n; i++)" with n <= N becomes a fixed-trip loop
// guarded by the original condition, which synthesis can schedule.
func instIndexStatic(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	var out []Edit
	for _, site := range loopSites(u) {
		if site.trip > 0 || site.isWhile {
			continue // already static, or not a counted loop at all
		}
		site := site
		bound := boundHint(u, site)
		if bound <= 0 {
			continue
		}
		out = append(out, Edit{
			Template: "index_static",
			Class:    hls.ClassLoopParallel,
			Target:   fmt.Sprintf("%s#%d", site.fn, site.idx),
			Note:     fmt.Sprintf("tripcount=%d with guard", bound),
			Apply:    func(u *cast.Unit) error { return applyIndexStatic(u, site, bound) },
		})
	}
	return out
}

// boundHint guesses a static bound for a data-dependent loop from the
// arrays it indexes.
func boundHint(u *cast.Unit, site loopSite) int {
	fn := u.Func(site.fn)
	if fn == nil {
		return 0
	}
	max := 0
	for _, arr := range site.arrs {
		if size, _, ok := bufferShape(u, fn, arr); ok && size > max {
			max = size
		}
	}
	return max
}

// applyIndexStatic rewrites "for (init; i < n; post) body" into
// "for (init; i < BOUND; post) { if (!(i < n)) break; body }".
func applyIndexStatic(u *cast.Unit, site loopSite, bound int) error {
	loop := nthFor(u, site.fn, site.idx)
	if loop == nil {
		return fmt.Errorf("index_static: loop %s#%d missing", site.fn, site.idx)
	}
	cond, ok := loop.Cond.(*cast.Binary)
	if !ok {
		return fmt.Errorf("index_static: loop %s#%d has no comparable bound", site.fn, site.idx)
	}
	guard := &cast.If{
		Cond:     &cast.Unary{Op: ctoken.NOT, X: cast.CloneExpr(cond)},
		Then:     &cast.Break{},
		BranchID: -1,
	}
	body, ok := loop.Body.(*cast.Block)
	if !ok {
		body = &cast.Block{Stmts: []cast.Stmt{loop.Body}}
	}
	body.Stmts = append([]cast.Stmt{guard}, body.Stmts...)
	loop.Body = body
	loop.Cond = &cast.Binary{Op: ctoken.LSS, L: cast.CloneExpr(cond.L),
		R: &cast.IntLit{Value: int64(bound), Text: fmt.Sprintf("%d", bound)}}
	// NumberBranches renumbers every branch site in the unit, so this
	// edit declares no Scope and always runs on a full clone: every
	// declaration it renumbers belongs to this candidate alone, never to
	// a parent program that other candidates share and are evaluated on.
	cast.NumberBranches(u)
	return nil
}

// delete_loop_pragma: strip the offending loop pragmas (repairs the error,
// gives up the optimization).
func instDeleteLoopPragma(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	var out []Edit
	for _, site := range loopSites(u) {
		site := site
		forLoop, whileLoop := nthLoop(u, site.fn, site.idx)
		hasPragmas := (forLoop != nil && len(forLoop.Pragmas) > 0) ||
			(whileLoop != nil && len(whileLoop.Pragmas) > 0)
		if !hasPragmas {
			continue
		}
		out = append(out, Edit{
			Template: "delete_loop_pragma",
			Class:    hls.ClassLoopParallel,
			Target:   fmt.Sprintf("%s#%d", site.fn, site.idx),
			Note:     "remove loop pragmas",
			Scope:    []string{site.fn},
			Apply: func(u *cast.Unit) error {
				f, w := nthLoop(u, site.fn, site.idx)
				switch {
				case f != nil && len(f.Pragmas) > 0:
					f.Pragmas = nil
				case w != nil && len(w.Pragmas) > 0:
					w.Pragmas = nil
				default:
					return fmt.Errorf("delete_loop_pragma: nothing to delete at %s#%d", site.fn, site.idx)
				}
				return nil
			},
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Top Function

// top_rename: align a mismatching "#pragma HLS top name=X" with the
// configured top function.
func instTopRename(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	if d.Subject == "" {
		return nil
	}
	wrong := d.Subject
	return []Edit{{
		Template: "top_rename",
		Class:    hls.ClassTopFunction,
		Target:   wrong,
		Note:     "fix top name",
		Apply: func(u *cast.Unit) error {
			fixed := false
			fix := func(text string) (string, bool) {
				dir := cast.ParsePragma(text)
				if dir.Kind == cast.PragmaTop && dir.Name == wrong {
					return strings.Replace(text, "name="+wrong, "name="+topOf(u), 1), true
				}
				return text, false
			}
			for _, dd := range u.Decls {
				switch x := dd.(type) {
				case *cast.PragmaDecl:
					if t, ok := fix(x.Text); ok {
						x.Text = t
						fixed = true
					}
				case *cast.FuncDecl:
					for _, p := range x.Pragmas {
						if t, ok := fix(p.Text); ok {
							p.Text = t
							fixed = true
						}
					}
				}
			}
			if !fixed {
				return fmt.Errorf("top_rename: no top pragma names %q", wrong)
			}
			return nil
		},
	}}
}

// topOf guesses the intended top function: the last defined non-helper
// function (designs conventionally put the top last).
func topOf(u *cast.Unit) string {
	fns := u.Funcs()
	if len(fns) == 0 {
		return "top"
	}
	return fns[len(fns)-1].Name
}

// top_delete_pragma: drop the conflicting top directive so the tool
// configuration wins.
func instTopDeletePragma(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	if d.Subject == "" {
		return nil
	}
	wrong := d.Subject
	return []Edit{{
		Template: "top_delete_pragma",
		Class:    hls.ClassTopFunction,
		Target:   wrong,
		Note:     "delete top pragma",
		// The edit filters the pragma list of every function declaration
		// (and drops top-level PragmaDecls, which only rebuilds the
		// clone's own Decls slice), so the scope is all functions.
		Scope: funcNames(u),
		Apply: func(u *cast.Unit) error {
			removed := false
			var kept []cast.Decl
			for _, dd := range u.Decls {
				if pd, ok := dd.(*cast.PragmaDecl); ok {
					dir := cast.ParsePragma(pd.Text)
					if dir.Kind == cast.PragmaTop && dir.Name == wrong {
						removed = true
						continue
					}
				}
				kept = append(kept, dd)
			}
			u.Decls = kept
			for _, dd := range u.Decls {
				if fn, ok := dd.(*cast.FuncDecl); ok {
					filtered := fn.Pragmas[:0]
					for _, p := range fn.Pragmas {
						dir := cast.ParsePragma(p.Text)
						if dir.Kind == cast.PragmaTop && dir.Name == wrong {
							removed = true
							continue
						}
						filtered = append(filtered, p)
					}
					fn.Pragmas = filtered
				}
			}
			if !removed {
				return fmt.Errorf("top_delete_pragma: no top pragma names %q", wrong)
			}
			return nil
		},
	}}
}
