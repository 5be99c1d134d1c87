// Package check implements the full synthesizability checker of the
// simulated HLS toolchain. It reproduces the diagnostic surface that
// HeteroGen's repair engine consumes: each check emits a Vivado-HLS-style
// error whose wording carries the keywords ("recursive", "dynamic memory",
// "dataflow", "struct", ...) that repair localization keys on.
//
// The checks cover the six §5.1 error classes:
//
//   - Dynamic data structures: malloc/free, recursion (direct and mutual),
//     arrays with sizes unknown at compile time.
//   - Unsupported data types: long double anywhere; pointer declarations
//     outside top-function interfaces.
//   - Dataflow optimization: a buffer consumed by more than one process in
//     a #pragma HLS dataflow region.
//   - Loop parallelization: array_partition factors that do not divide the
//     array size; unroll/dataflow interactions with excessive factors.
//   - Struct and union: struct temporaries without an explicit
//     constructor; non-static streams connecting struct instances inside a
//     dataflow region.
//   - Top function: configuration naming a function absent from the design.
package check

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
)

// Run performs the full synthesizability check of unit u under cfg.
func Run(u *cast.Unit, cfg hls.Config) hls.Report {
	c := &checker{unit: u, cfg: cfg}
	c.checkTopFunction()
	c.checkDynamicData()
	c.checkTypes()
	c.checkStructs()
	c.checkDataflow()
	c.checkLoops()
	return hls.Report{Diags: c.diags, OK: len(c.diags) == 0}
}

// Observe emits the structured hls_check event for an already-computed
// report: the diagnostic counts by error class. It is the standalone
// checker's event (core.Check, behind `heterogen check`, emits it once
// per target, cache hit or not), so a memoized verdict produces the
// identical event a fresh check would — the trace cannot tell the
// difference. The repair search does not use it: its checker runs happen
// on worker goroutines, whose verdicts are buffered in the candidate
// outcome and emitted as repair_candidate events at commit time instead
// (see internal/obs).
func Observe(o obs.Observer, cfg hls.Config, rep hls.Report) {
	if !obs.Enabled(o) {
		return
	}
	byClass := map[string]int{}
	for _, d := range rep.Diags {
		byClass[d.Class.String()]++
	}
	o.Emit(obs.Event{Type: obs.EvCheck, Check: &obs.CheckEvent{
		Top: cfg.Top, Errors: len(rep.Diags), ByClass: byClass,
	}})
}

type checker struct {
	unit  *cast.Unit
	cfg   hls.Config
	diags []hls.Diagnostic
}

func (c *checker) add(d hls.Diagnostic) { c.diags = append(c.diags, d) }

// ---------------------------------------------------------------------------
// Top function

func (c *checker) checkTopFunction() {
	if c.cfg.Top == "" {
		c.add(hls.Diagnostic{
			Code:    "HLS 200-1",
			Message: "Cannot find the top function in the design: no top function configured",
			Class:   hls.ClassTopFunction,
		})
		return
	}
	if c.unit.Func(c.cfg.Top) == nil {
		c.add(hls.Diagnostic{
			Code: "HLS 200-1",
			Message: fmt.Sprintf(
				"Cannot find the top function '%s' in the design", c.cfg.Top),
			Class:   hls.ClassTopFunction,
			Subject: c.cfg.Top,
		})
	}
	// Conflicting "#pragma HLS top name=X" directives must agree with the
	// configured top. Such pragmas may survive at file scope or attached
	// to a function head.
	checkTopDirective := func(text string) {
		dir := cast.ParsePragma(text)
		if dir.Kind == cast.PragmaTop && dir.Name != "" && dir.Name != c.cfg.Top {
			c.add(hls.Diagnostic{
				Code: "HLS 200-1",
				Message: fmt.Sprintf(
					"Cannot find the top function '%s' in the design: configuration names '%s'",
					dir.Name, c.cfg.Top),
				Class:   hls.ClassTopFunction,
				Subject: dir.Name,
			})
		}
	}
	for _, d := range c.unit.Decls {
		switch x := d.(type) {
		case *cast.PragmaDecl:
			checkTopDirective(x.Text)
		case *cast.FuncDecl:
			for _, p := range x.Pragmas {
				checkTopDirective(p.Text)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Dynamic data structures

func (c *checker) checkDynamicData() {
	// malloc / free anywhere in the design.
	cast.Inspect(c.unit, func(n cast.Node) bool {
		call, ok := n.(*cast.Call)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*cast.Ident); ok {
			switch id.Name {
			case "malloc", "calloc", "realloc":
				c.add(hls.Diagnostic{
					Code: "SYNCHK 200-31",
					Message: fmt.Sprintf(
						"dynamic memory allocation/deallocation is not supported: call to '%s'", id.Name),
					Class:   hls.ClassDynamicData,
					Subject: id.Name,
				})
			case "free":
				c.add(hls.Diagnostic{
					Code:    "SYNCHK 200-31",
					Message: "dynamic memory allocation/deallocation is not supported: call to 'free'",
					Class:   hls.ClassDynamicData,
					Subject: "free",
				})
			}
		}
		return true
	})

	// Recursion: direct or mutual, via call-graph cycle detection.
	for _, fname := range recursiveFunctions(c.unit) {
		c.add(hls.Diagnostic{
			Code: "XFORM 202-876",
			Message: fmt.Sprintf(
				"Synthesizability check failed: recursive functions are not supported ('%s')", fname),
			Class:   hls.ClassDynamicData,
			Subject: fname,
		})
	}

	// goto requires control-flow restructuring the fabric cannot express
	// directly — like recursion, it belongs to the "restructure your
	// logic" family of dynamic-control errors.
	cast.Inspect(c.unit, func(n cast.Node) bool {
		if g, ok := n.(*cast.Goto); ok {
			c.add(hls.Diagnostic{
				Code: "SYNCHK 200-62",
				Message: fmt.Sprintf(
					"goto '%s' is not synthesizable: restructure the control flow with loops and conditionals", g.Name),
				Class:   hls.ClassDynamicData,
				Subject: g.Name,
			})
		}
		return true
	})

	// Arrays of unknown size (locals and globals). Parameters are checked
	// as interfaces under type rules.
	cast.Inspect(c.unit, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.DeclStmt:
			if arr, ok := ctypes.Resolve(x.Type).(ctypes.Array); ok && hasUnknownDim(arr) {
				c.add(hls.Diagnostic{
					Code: "SYNCHK 200-61",
					Message: fmt.Sprintf(
						"unsupported memory access on variable '%s' which is (or contains) an array with unknown size at compile time", x.Name),
					Class:   hls.ClassDynamicData,
					Subject: x.Name,
				})
			}
		case *cast.VarDecl:
			if arr, ok := ctypes.Resolve(x.Type).(ctypes.Array); ok && hasUnknownDim(arr) {
				c.add(hls.Diagnostic{
					Code: "SYNCHK 200-61",
					Message: fmt.Sprintf(
						"unsupported memory access on variable '%s' which is (or contains) an array with unknown size at compile time", x.Name),
					Class:   hls.ClassDynamicData,
					Subject: x.Name,
				})
			}
		}
		return true
	})
}

func hasUnknownDim(a ctypes.Array) bool {
	if a.Len < 0 {
		return true
	}
	if inner, ok := ctypes.Resolve(a.Elem).(ctypes.Array); ok {
		return hasUnknownDim(inner)
	}
	return false
}

// recursiveFunctions returns names of functions on call-graph cycles, in
// declaration order.
func recursiveFunctions(u *cast.Unit) []string {
	graph := map[string][]string{}
	var order []string
	addFn := func(f *cast.FuncDecl) {
		order = append(order, f.Name)
		var callees []string
		cast.Inspect(f, func(n cast.Node) bool {
			if call, ok := n.(*cast.Call); ok {
				if id, ok := call.Fun.(*cast.Ident); ok {
					callees = append(callees, id.Name)
				}
			}
			return true
		})
		graph[f.Name] = callees
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.FuncDecl:
			if x.Body != nil {
				addFn(x)
			}
		case *cast.StructDecl:
			for _, m := range x.Methods {
				if m.Body != nil {
					addFn(m)
				}
			}
		}
	}
	// A function is recursive if it can reach itself.
	reaches := func(from, target string) bool {
		seen := map[string]bool{}
		stack := append([]string{}, graph[from]...)
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f == target {
				return true
			}
			if seen[f] {
				continue
			}
			seen[f] = true
			stack = append(stack, graph[f]...)
		}
		return false
	}
	var out []string
	for _, f := range order {
		if reaches(f, f) {
			out = append(out, f)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Unsupported data types

func (c *checker) checkTypes() {
	top := c.unit.Func(c.cfg.Top)

	checkType := func(t ctypes.Type, name string, isTopParam bool) {
		rt := ctypes.Resolve(t)
		if f, ok := rt.(ctypes.Float); ok && f.FK == ctypes.F80 {
			c.add(hls.Diagnostic{
				Code: "SYNCHK 200-11",
				Message: fmt.Sprintf(
					"type 'long double' of '%s' is not synthesizable: call of overloaded arithmetic is ambiguous", name),
				Class:   hls.ClassUnsupportedType,
				Subject: name,
			})
		}
		if _, ok := rt.(ctypes.Pointer); ok && !isTopParam {
			c.add(hls.Diagnostic{
				Code: "SYNCHK 200-41",
				Message: fmt.Sprintf(
					"pointer '%s' is not supported: pointers are only allowed on top-level interface ports", name),
				Class:   hls.ClassUnsupportedType,
				Subject: name,
			})
		}
	}

	for _, d := range c.unit.Decls {
		switch x := d.(type) {
		case *cast.VarDecl:
			checkType(x.Type, x.Name, false)
		case *cast.FuncDecl:
			c.checkFuncTypes(x, x == top, checkType)
		case *cast.StructDecl:
			for _, f := range x.Type.Fields {
				rt := ctypes.Resolve(f.Type)
				if fl, ok := rt.(ctypes.Float); ok && fl.FK == ctypes.F80 {
					c.add(hls.Diagnostic{
						Code: "SYNCHK 200-11",
						Message: fmt.Sprintf(
							"type 'long double' of field '%s.%s' is not synthesizable", x.Type.Tag, f.Name),
						Class:   hls.ClassUnsupportedType,
						Subject: f.Name,
					})
				}
				if _, ok := rt.(ctypes.Pointer); ok {
					c.add(hls.Diagnostic{
						Code: "SYNCHK 200-41",
						Message: fmt.Sprintf(
							"pointer field '%s.%s' is not supported in a synthesizable struct", x.Type.Tag, f.Name),
						Class:   hls.ClassUnsupportedType,
						Subject: f.Name,
					})
				}
			}
			for _, m := range x.Methods {
				c.checkFuncTypes(m, false, checkType)
			}
		}
	}
}

func (c *checker) checkFuncTypes(fn *cast.FuncDecl, isTop bool,
	checkType func(ctypes.Type, string, bool)) {
	for _, p := range fn.Params {
		checkType(p.Type, p.Name, isTop)
	}
	checkType(fn.Ret, fn.Name+"() return", false)
	cast.Inspect(fn, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok {
			checkType(d.Type, d.Name, false)
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Struct and union

func (c *checker) checkStructs() {
	// Unions map poorly to fabric storage: their overlapping fields need
	// an explicit hardware-level representation, so any union-typed
	// declaration is flagged (the paper's "Struct and Union" class covers
	// both; see Table 1's post 1117215 discussion).
	flagUnion := func(t ctypes.Type, name string) {
		if st, ok := ctypes.Resolve(t).(*ctypes.Struct); ok && st.IsUnion {
			c.add(hls.Diagnostic{
				Code: "SYNCHK 200-93",
				Message: fmt.Sprintf(
					"union '%s' of variable '%s' is not synthesizable without an explicit hardware-level implementation", st.Tag, name),
				Class:   hls.ClassStructUnion,
				Subject: st.Tag,
			})
		}
	}
	cast.Inspect(c.unit, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.DeclStmt:
			flagUnion(x.Type, x.Name)
		case *cast.VarDecl:
			flagUnion(x.Type, x.Name)
		}
		return true
	})

	// Struct temporaries (Tag{...}) require an explicit constructor.
	cast.Inspect(c.unit, func(n cast.Node) bool {
		il, ok := n.(*cast.InitList)
		if !ok || il.Type == nil {
			return true
		}
		st, ok := il.Type.(*ctypes.Struct)
		if !ok {
			return true
		}
		sd := c.unit.StructOf(st.Tag)
		if sd == nil || !sd.HasCtor {
			c.add(hls.Diagnostic{
				Code: "SYNCHK 200-91",
				Message: fmt.Sprintf(
					"Argument 'this' has an unsynthesizable struct type '%s': no explicit constructor for hardware instantiation", st.Tag),
				Class:   hls.ClassStructUnion,
				Subject: st.Tag,
			})
		}
		return true
	})

	// Streams connecting struct instances in a dataflow region must be
	// declared static (Figure 5's second repair).
	for _, fn := range c.unit.Funcs() {
		if fn.Body == nil || !fn.HasDataflow() {
			continue
		}
		usesStructInstances := false
		cast.Inspect(fn, func(n cast.Node) bool {
			if il, ok := n.(*cast.InitList); ok && il.Type != nil {
				if _, isStruct := il.Type.(*ctypes.Struct); isStruct {
					usesStructInstances = true
				}
			}
			return true
		})
		if !usesStructInstances {
			continue
		}
		cast.Inspect(fn, func(n cast.Node) bool {
			d, ok := n.(*cast.DeclStmt)
			if !ok {
				return true
			}
			if _, isStream := ctypes.Resolve(d.Type).(ctypes.Stream); isStream && !d.Static {
				c.add(hls.Diagnostic{
					Code: "SYNCHK 200-92",
					Message: fmt.Sprintf(
						"the connecting stream '%s' between struct instances in a dataflow region must be static", d.Name),
					Class:   hls.ClassStructUnion,
					Subject: d.Name,
				})
			}
			return true
		})
	}
}
